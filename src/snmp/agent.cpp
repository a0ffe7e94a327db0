#include "snmp/agent.h"

#include <stdexcept>

#include "common/log.h"
#include "snmp/ber.h"

namespace netqos::snmp {

SnmpAgent::SnmpAgent(sim::Simulator& sim, sim::UdpStack& stack,
                     AgentConfig config)
    : sim_(sim), stack_(stack), config_(std::move(config)),
      rng_(config_.seed) {
  const bool ok = stack_.bind(
      sim::kSnmpPort, [this](const sim::Ipv4Packet& p) { handle(p); });
  if (!ok) {
    throw std::logic_error("SNMP port already bound");
  }
}

void SnmpAgent::set_trap_sink(sim::Ipv4Address manager, std::uint16_t port) {
  trap_sink_ = manager;
  trap_port_ = port;
}

bool SnmpAgent::send_trap(const Oid& trap_oid,
                          std::vector<VarBind> varbinds) {
  if (trap_sink_.is_unspecified()) return false;

  Message message;
  message.version = SnmpVersion::kV2c;
  message.community = config_.community;
  message.pdu.type = PduType::kSnmpV2Trap;
  message.pdu.request_id = static_cast<std::int32_t>(rng_.next());

  // RFC 1905: first sysUpTime.0, then snmpTrapOID.0, then the payload.
  SnmpValue uptime = TimeTicks{0};
  if (auto value = mib_.get(mib2::kSysUpTime.child(0))) {
    uptime = std::move(*value);
  }
  message.pdu.varbinds.push_back({mib2::kSysUpTime.child(0), uptime});
  message.pdu.varbinds.push_back(
      {mib2::kSnmpTrapOid.child(0), SnmpValue(trap_oid)});
  for (auto& vb : varbinds) message.pdu.varbinds.push_back(std::move(vb));

  if (!stack_.send(trap_sink_, trap_port_, sim::kSnmpPort,
                   encode_message(message))) {
    return false;
  }
  ++stats_.traps_sent;
  return true;
}

bool SnmpAgent::send_trap_v1(const Oid& enterprise, GenericTrap generic_trap,
                             std::int32_t specific_trap,
                             std::vector<VarBind> varbinds) {
  if (trap_sink_.is_unspecified()) return false;

  Message message;
  message.version = SnmpVersion::kV1;
  message.community = config_.community;
  TrapV1Pdu trap;
  trap.enterprise = enterprise;
  trap.agent_addr = stack_.ip().value();
  trap.generic_trap = generic_trap;
  trap.specific_trap = specific_trap;
  if (auto value = mib_.get(mib2::kSysUpTime.child(0))) {
    if (const auto* ticks = std::get_if<TimeTicks>(&*value)) {
      trap.time_stamp_ticks = ticks->value;
    }
  }
  trap.varbinds = std::move(varbinds);
  message.trap_v1 = std::move(trap);

  if (!stack_.send(trap_sink_, trap_port_, sim::kSnmpPort,
                   encode_message(message))) {
    return false;
  }
  ++stats_.traps_sent;
  return true;
}

void SnmpAgent::handle(const sim::Ipv4Packet& packet) {
  ++stats_.requests;
  if (!responding_) return;  // daemon down: silent drop, manager times out

  Message request;
  try {
    request = decode_message(packet.udp.payload);
  } catch (const BerError& e) {
    ++stats_.decode_errors;
    NETQOS_DEBUG() << "agent decode error: " << e.what();
    return;
  } catch (const BufferUnderflow& e) {
    // Truncated request — drop like malformed BER.
    ++stats_.decode_errors;
    NETQOS_DEBUG() << "agent decode error: " << e.what();
    return;
  }
  if (request.community != config_.community) {
    // RFC 1157: silently drop on community mismatch (no trap support).
    ++stats_.auth_failures;
    return;
  }

  Message response;
  response.version = request.version;
  response.community = request.community;
  response.pdu = process(request);

  SimDuration delay =
      config_.base_processing_delay +
      from_seconds(rng_.exponential(to_seconds(config_.mean_jitter)));
  if (rng_.uniform() < config_.hiccup_probability) {
    delay += config_.hiccup_delay;
    ++stats_.hiccups;
  }

  const sim::Ipv4Address reply_to = packet.src;
  const std::uint16_t reply_port = packet.udp.src_port;
  Bytes wire = encode_message(response, sim_.buffer_pool().acquire());
  sim_.schedule_after(delay, [this, reply_to, reply_port,
                              wire = std::move(wire)]() mutable {
    if (stack_.send(reply_to, reply_port, sim::kSnmpPort, std::move(wire))) {
      ++stats_.responses;
    }
  });
}

Pdu SnmpAgent::process(const Message& request) {
  switch (request.pdu.type) {
    case PduType::kGetRequest:
      return process_get(request.pdu, request.version);
    case PduType::kGetNextRequest:
      return process_get_next(request.pdu, request.version);
    case PduType::kGetBulkRequest:
      if (request.version == SnmpVersion::kV2c) {
        return process_get_bulk(request.pdu);
      }
      [[fallthrough]];
    default: {
      Pdu response = request.pdu;
      response.type = PduType::kGetResponse;
      response.error_status = ErrorStatus::kGenErr;
      response.error_index = 0;
      return response;
    }
  }
}

Pdu SnmpAgent::process_get(const Pdu& request, SnmpVersion version) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;
  response.varbinds = request.varbinds;

  for (std::size_t i = 0; i < response.varbinds.size(); ++i) {
    auto value = mib_.get(response.varbinds[i].oid);
    if (value.has_value()) {
      response.varbinds[i].value = std::move(*value);
    } else if (version == SnmpVersion::kV2c) {
      response.varbinds[i].value = VarBindException::kNoSuchInstance;
    } else {
      response.error_status = ErrorStatus::kNoSuchName;
      response.error_index = static_cast<std::int32_t>(i + 1);
      return response;
    }
  }
  return response;
}

Pdu SnmpAgent::process_get_next(const Pdu& request, SnmpVersion version) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;
  response.varbinds = request.varbinds;

  for (std::size_t i = 0; i < response.varbinds.size(); ++i) {
    auto next = mib_.get_next(response.varbinds[i].oid);
    // RFC 1905 §4.2.2: the successor must be lexicographically greater
    // than the request OID. MibTree::get_next guarantees this for
    // registered objects and relies on table providers for their rows,
    // so a guard keeps a faulty provider from ever emitting the
    // endless-walk responses the manager defends against.
    const bool increasing =
        next.has_value() && next->first > response.varbinds[i].oid;
    if (increasing) {
      response.varbinds[i].oid = std::move(next->first);
      response.varbinds[i].value = std::move(next->second);
    } else if (version == SnmpVersion::kV2c) {
      response.varbinds[i].value = VarBindException::kEndOfMibView;
    } else {
      response.error_status = ErrorStatus::kNoSuchName;
      response.error_index = static_cast<std::int32_t>(i + 1);
      return response;
    }
  }
  return response;
}

Pdu SnmpAgent::process_get_bulk(const Pdu& request) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;

  const auto non_repeaters = static_cast<std::size_t>(
      std::max<std::int32_t>(0, request.non_repeaters()));
  const auto max_reps = static_cast<std::size_t>(
      std::max<std::int32_t>(0, request.max_repetitions()));

  const std::size_t singles = std::min(non_repeaters, request.varbinds.size());
  // Bounded by the agent's response cap, whatever max-repetitions the
  // wire asked for.
  const std::size_t repeaters = request.varbinds.size() - singles;
  response.varbinds.reserve(
      singles +
      std::min(config_.max_response_varbinds, repeaters * max_reps));

  // Non-repeaters: one GETNEXT each.
  for (std::size_t i = 0; i < singles; ++i) {
    auto next = mib_.get_next(request.varbinds[i].oid);
    if (next.has_value()) {
      response.varbinds.push_back(
          VarBind{std::move(next->first), std::move(next->second)});
    } else {
      response.varbinds.push_back(VarBind{request.varbinds[i].oid,
                                          VarBindException::kEndOfMibView});
    }
  }

  // Repeaters: up to max-repetitions GETNEXT steps per varbind. The
  // cursor is the OID just appended, so each step moves the successor
  // into the response instead of copying it.
  for (std::size_t i = singles; i < request.varbinds.size(); ++i) {
    const Oid* cursor = &request.varbinds[i].oid;
    for (std::size_t rep = 0; rep < max_reps; ++rep) {
      if (response.varbinds.size() >= config_.max_response_varbinds) {
        return response;
      }
      auto next = mib_.get_next(*cursor);
      // Same monotonicity guard as GETNEXT: a non-increasing successor
      // would repeat rows up to max-repetitions; end the view instead.
      if (!next.has_value() || next->first <= *cursor) {
        response.varbinds.push_back(
            VarBind{*cursor, VarBindException::kEndOfMibView});
        break;
      }
      response.varbinds.push_back(
          VarBind{std::move(next->first), std::move(next->second)});
      cursor = &response.varbinds.back().oid;
    }
  }
  return response;
}

}  // namespace netqos::snmp
