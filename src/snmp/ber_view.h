// Zero-copy BER views: the one SNMP decoder.
//
// Every SNMP datagram is parsed here, into spans over the received
// bytes: BerReader walks TLVs in place, OidView/ValueView interpret
// content bytes on demand, and decode_message_head() exposes the
// envelope (version, community, PDU ids) without touching the varbinds.
// The poll loop reads responses through these views directly;
// decode_message() (pdu.h) materializes a whole Message on top of them
// for the agent, the trap listener and tests. Nothing here owns memory
// except the sanctioned bridges to_oid / to_value / decode_varbinds —
// views are valid only while the underlying buffer is alive, i.e.
// within the packet delivery callback.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/byte_buffer.h"
#include "snmp/ber.h"
#include "snmp/pdu.h"

namespace netqos::snmp {

/// One tag-length-value triple; `content` aliases the input buffer.
struct Tlv {
  std::uint8_t tag = 0;
  std::span<const std::uint8_t> content;
};

/// Sequential TLV cursor over a borrowed byte range.
class BerReader {
 public:
  BerReader() : in_(std::span<const std::uint8_t>{}) {}
  explicit BerReader(std::span<const std::uint8_t> data) : in_(data) {}

  /// Reads the next TLV; throws BerError / BufferUnderflow on malformed
  /// or truncated input.
  Tlv read_tlv();
  /// Reads the next TLV and demands a specific tag; returns its content.
  std::span<const std::uint8_t> expect_tlv(std::uint8_t tag);

  std::size_t remaining() const { return in_.remaining(); }
  bool empty() const { return in_.empty(); }

 private:
  ByteReader in_;
};

/// A BER-encoded OBJECT IDENTIFIER, interpreted in place.
struct OidView {
  std::span<const std::uint8_t> content;

  /// True when the encoded OID begins with every arc of `prefix`.
  bool starts_with(const Oid& prefix) const;
  /// The final arc — the row index when the OID names a table cell.
  std::uint32_t last_arc() const;
  std::size_t arc_count() const;
  /// Three-way lexicographic comparison against a materialized OID.
  int compare(const Oid& other) const;
  Oid to_oid() const;
};

/// A BER-encoded value, interpreted in place.
struct ValueView {
  std::uint8_t tag = ber::kTagNull;
  std::span<const std::uint8_t> content;

  /// v2c varbind exception (noSuchObject / noSuchInstance / endOfMibView).
  bool is_exception() const { return tag >= 0x80 && tag <= 0x82; }
  bool is_end_of_mib_view() const { return tag == 0x82; }

  /// Counter32/Gauge32/TimeTicks/Counter64 content; throws BerError on
  /// any other tag.
  std::uint64_t to_unsigned() const;
  /// INTEGER content; throws BerError on any other tag.
  std::int64_t to_integer() const;
  /// OCTET STRING content as a borrowed view; throws on other tags.
  std::string_view to_text() const;
  /// Materializes the value; the decoder's only tag-to-SnmpValue switch.
  SnmpValue to_value() const;
};

struct VarBindView {
  OidView oid;
  ValueView value;
};

/// The message envelope with the varbind list left unparsed. For a v1
/// Trap-PDU only `version`, `community` and `pdu_tag` are meaningful,
/// `varbinds` is empty and `trap_body` holds the unparsed Trap-PDU body
/// (enterprise, agent-addr, generic/specific trap, time-stamp, varbind
/// list; RFC 1157 §4.1.6).
struct MessageHeadView {
  SnmpVersion version = SnmpVersion::kV2c;
  std::string_view community;
  std::uint8_t pdu_tag = 0;
  std::int32_t request_id = 0;
  ErrorStatus error_status = ErrorStatus::kNoError;
  std::int32_t error_index = 0;
  BerReader varbinds;
  BerReader trap_body;
};

/// Parses the envelope of a complete SNMP message without copying.
/// Throws BerError / BufferUnderflow on malformed input.
MessageHeadView decode_message_head(std::span<const std::uint8_t> wire);

/// Advances to the next varbind of a message head's list. Returns false
/// at the end; throws on malformed varbind structure.
bool next_varbind(BerReader& varbinds, VarBindView& out);

/// Materializes a varbind list (counts first, reserves once). Takes the
/// reader by value so the caller's cursor is unaffected.
std::vector<VarBind> decode_varbinds(BerReader varbinds);

}  // namespace netqos::snmp
