// SNMP PDUs and messages (RFC 1157 / RFC 1905 wire format).
//
// The owning message model plus its encoder. decode_message is the
// materializing convenience over the zero-copy decoder in ber_view.h;
// it is not a parser of its own.
#pragma once

#include <optional>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "snmp/oid.h"
#include "snmp/value.h"

namespace netqos::snmp {

enum class PduType : std::uint8_t {
  kGetRequest = 0xa0,
  kGetNextRequest = 0xa1,
  kGetResponse = 0xa2,
  kSetRequest = 0xa3,
  kTrapV1 = 0xa4,      ///< classic Trap-PDU (RFC 1157 §4.1.6)
  kGetBulkRequest = 0xa5,
  kSnmpV2Trap = 0xa7,  ///< unacknowledged notification (RFC 1905 §4.2.6)
};

/// RFC 1157 generic-trap codes.
enum class GenericTrap : std::int32_t {
  kColdStart = 0,
  kWarmStart = 1,
  kLinkDown = 2,
  kLinkUp = 3,
  kAuthenticationFailure = 4,
  kEgpNeighborLoss = 5,
  kEnterpriseSpecific = 6,
};

enum class ErrorStatus : std::int32_t {
  kNoError = 0,
  kTooBig = 1,
  kNoSuchName = 2,
  kBadValue = 3,
  kReadOnly = 4,
  kGenErr = 5,
};

const char* error_status_name(ErrorStatus status);

struct VarBind {
  Oid oid;
  SnmpValue value = Null{};

  bool operator==(const VarBind& o) const {
    return oid == o.oid && value == o.value;
  }
};

struct Pdu {
  PduType type = PduType::kGetRequest;
  std::int32_t request_id = 0;
  // For GetBulk these two fields are non-repeaters / max-repetitions
  // (RFC 1905 reuses the error-status/error-index slots).
  ErrorStatus error_status = ErrorStatus::kNoError;
  std::int32_t error_index = 0;
  std::vector<VarBind> varbinds;

  std::int32_t non_repeaters() const {
    return static_cast<std::int32_t>(error_status);
  }
  std::int32_t max_repetitions() const { return error_index; }
};

/// The classic SNMPv1 Trap-PDU, whose body differs from every other PDU
/// (RFC 1157 §4.1.6): enterprise OID, agent address, generic/specific
/// trap codes and a timestamp instead of request-id/error fields.
struct TrapV1Pdu {
  Oid enterprise;
  std::uint32_t agent_addr = 0;  ///< IPv4, host order
  GenericTrap generic_trap = GenericTrap::kEnterpriseSpecific;
  std::int32_t specific_trap = 0;
  std::uint32_t time_stamp_ticks = 0;
  std::vector<VarBind> varbinds;
};

enum class SnmpVersion : std::int32_t { kV1 = 0, kV2c = 1 };

struct Message {
  SnmpVersion version = SnmpVersion::kV2c;
  std::string community = "public";
  /// The regular PDU — ignored when `trap_v1` is engaged.
  Pdu pdu;
  /// When set, the message carries a classic v1 Trap-PDU instead of
  /// `pdu`. Only meaningful with version == kV1.
  std::optional<TrapV1Pdu> trap_v1;
};

/// Serializes a complete SNMP message (the UDP payload).
///
/// Single-pass: nested lengths are computed up front with the ber::*_size
/// helpers, so the encoder performs exactly one reserve and no scratch
/// buffers. Pass a recycled buffer (e.g. from BufferPool::acquire) as
/// `reuse` to make steady-state encoding allocation-free; its contents
/// are discarded but its capacity is kept.
Bytes encode_message(const Message& message, Bytes reuse = {});

/// Materializes a complete SNMP message from the views of ber_view.h
/// (decode_message_head, then decode_varbinds or the v1 Trap-PDU body).
/// Throws BerError / BufferUnderflow on malformed input.
Message decode_message(const Bytes& wire);

}  // namespace netqos::snmp
