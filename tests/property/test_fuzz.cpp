// Robustness fuzzing: malformed inputs must raise typed errors, never
// crash or hang. Parameterized over seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "spec/lexer.h"
#include "spec/parser.h"
#include "snmp/ber.h"
#include "snmp/client.h"
#include "snmp/pdu.h"
#include "snmp/trap.h"
#include "snmp/walker.h"

namespace netqos {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, BerDecoderNeverCrashesOnRandomBytes) {
  Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)snmp::decode_message(junk);
    } catch (const snmp::BerError&) {
    } catch (const BufferUnderflow&) {
    }
  }
}

TEST_P(FuzzSeeds, BerDecoderSurvivesTruncatedValidMessages) {
  Xoshiro256 rng(GetParam());
  snmp::Message msg;
  msg.pdu.type = snmp::PduType::kGetResponse;
  msg.pdu.varbinds = {
      {snmp::Oid({1, 3, 6, 1, 2, 1, 1, 3, 0}),
       snmp::SnmpValue(snmp::TimeTicks{123})},
      {snmp::Oid({1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1}),
       snmp::SnmpValue(snmp::Counter32{456})},
  };
  const Bytes wire = snmp::encode_message(msg);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    try {
      (void)snmp::decode_message(truncated);
      // Decoding a strict prefix to success is impossible: the outer
      // sequence length would overrun.
      FAIL() << "truncated message decoded at cut " << cut;
    } catch (const snmp::BerError&) {
    } catch (const BufferUnderflow&) {
    }
  }
}

TEST_P(FuzzSeeds, BerDecoderSurvivesBitFlips) {
  Xoshiro256 rng(GetParam() ^ 0xf11b);
  snmp::Message msg;
  msg.pdu.type = snmp::PduType::kGetRequest;
  msg.pdu.varbinds = {{snmp::Oid({1, 3, 6, 1, 2, 1, 1, 1, 0}),
                       snmp::SnmpValue(snmp::Null{})}};
  const Bytes wire = snmp::encode_message(msg);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = wire;
    const std::size_t byte = rng.uniform_int(0, mutated.size() - 1);
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    try {
      (void)snmp::decode_message(mutated);  // may succeed with new values
    } catch (const snmp::BerError&) {
    } catch (const BufferUnderflow&) {
    }
  }
}

TEST_P(FuzzSeeds, LexerNeverCrashesOnRandomText) {
  Xoshiro256 rng(GetParam() ^ 0x1e4);
  for (int iter = 0; iter < 500; ++iter) {
    std::string text;
    const std::size_t length = rng.uniform_int(0, 200);
    for (std::size_t i = 0; i < length; ++i) {
      text += static_cast<char>(rng.uniform_int(32, 126));
    }
    try {
      (void)spec::lex(text);
    } catch (const spec::ParseError&) {
    }
  }
}

TEST_P(FuzzSeeds, ParserNeverCrashesOnTokenSoup) {
  Xoshiro256 rng(GetParam() ^ 0x9a9a);
  const char* words[] = {"network", "host",    "switch", "hub",
                         "interface", "connect", "snmp",   "on",
                         "off",       "speed",   "address", "os",
                         "qos",       "path",    "min_available",
                         "{",         "}",       ";",       "<->",
                         "n1",        "10.0.0.1", "100Mbps", "\"x\""};
  for (int iter = 0; iter < 500; ++iter) {
    std::string source;
    const std::size_t count = rng.uniform_int(0, 40);
    for (std::size_t i = 0; i < count; ++i) {
      source += words[rng.uniform_int(0, std::size(words) - 1)];
      source += ' ';
    }
    try {
      (void)spec::parse_spec(source);
    } catch (const spec::ParseError&) {
    }
  }
}

TEST_P(FuzzSeeds, OidParseRobust) {
  Xoshiro256 rng(GetParam() ^ 0x01d);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string text;
    const std::size_t length = rng.uniform_int(0, 24);
    for (std::size_t i = 0; i < length; ++i) {
      const char chars[] = "0123456789..x";
      text += chars[rng.uniform_int(0, sizeof(chars) - 2)];
    }
    try {
      const auto oid = snmp::Oid::parse(text);
      // If parsing succeeded, to_string must round-trip.
      EXPECT_EQ(snmp::Oid::parse(oid.to_string()), oid);
    } catch (const std::invalid_argument&) {
    }
  }
}

// --- PDU / varbind layer -------------------------------------------------

snmp::Oid random_oid(Xoshiro256& rng) {
  std::vector<std::uint32_t> arcs;
  arcs.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 2)));
  arcs.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 39)));
  const std::size_t extra = rng.uniform_int(0, 8);
  for (std::size_t i = 0; i < extra; ++i) {
    // Mix single-septet arcs with ones that need the full 32-bit base-128
    // encoding.
    arcs.push_back(rng.uniform_int(0, 1) == 0
                       ? static_cast<std::uint32_t>(rng.uniform_int(0, 127))
                       : static_cast<std::uint32_t>(rng.next()));
  }
  return snmp::Oid(std::move(arcs));
}

snmp::SnmpValue random_value(Xoshiro256& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0: return snmp::Null{};
    case 1: return static_cast<std::int64_t>(rng.next());
    case 2: {
      std::string text;
      const std::size_t length = rng.uniform_int(0, 16);
      for (std::size_t i = 0; i < length; ++i) {
        text += static_cast<char>(rng.uniform_int(0, 255));
      }
      return text;
    }
    case 3: return random_oid(rng);
    case 4: return snmp::IpAddressValue{static_cast<std::uint32_t>(rng.next())};
    case 5: return snmp::Counter32{static_cast<std::uint32_t>(rng.next())};
    case 6: return snmp::Gauge32{static_cast<std::uint32_t>(rng.next())};
    case 7: return snmp::TimeTicks{static_cast<std::uint32_t>(rng.next())};
    case 8: return snmp::Counter64{rng.next()};
    default:
      return static_cast<snmp::VarBindException>(0x80 +
                                                 rng.uniform_int(0, 2));
  }
}

snmp::Message random_message(Xoshiro256& rng) {
  snmp::Message msg;
  msg.version =
      rng.uniform_int(0, 1) == 0 ? snmp::SnmpVersion::kV1
                                 : snmp::SnmpVersion::kV2c;
  msg.community.clear();
  const std::size_t community_len = rng.uniform_int(0, 12);
  for (std::size_t i = 0; i < community_len; ++i) {
    msg.community += static_cast<char>(rng.uniform_int(32, 126));
  }
  if (rng.uniform_int(0, 7) == 0) {
    // Classic v1 Trap-PDU (distinct body layout).
    msg.version = snmp::SnmpVersion::kV1;
    snmp::TrapV1Pdu trap;
    trap.enterprise = random_oid(rng);
    trap.agent_addr = static_cast<std::uint32_t>(rng.next());
    trap.generic_trap = static_cast<snmp::GenericTrap>(rng.uniform_int(0, 6));
    trap.specific_trap = static_cast<std::int32_t>(rng.next());
    trap.time_stamp_ticks = static_cast<std::uint32_t>(rng.next());
    const std::size_t count = rng.uniform_int(0, 3);
    for (std::size_t i = 0; i < count; ++i) {
      trap.varbinds.push_back({random_oid(rng), random_value(rng)});
    }
    msg.trap_v1 = std::move(trap);
    return msg;
  }
  const snmp::PduType types[] = {
      snmp::PduType::kGetRequest,  snmp::PduType::kGetNextRequest,
      snmp::PduType::kGetResponse, snmp::PduType::kSetRequest,
      snmp::PduType::kGetBulkRequest, snmp::PduType::kSnmpV2Trap,
  };
  msg.pdu.type = types[rng.uniform_int(0, std::size(types) - 1)];
  msg.pdu.request_id = static_cast<std::int32_t>(rng.next());
  msg.pdu.error_status = static_cast<snmp::ErrorStatus>(rng.uniform_int(0, 5));
  msg.pdu.error_index = static_cast<std::int32_t>(rng.uniform_int(0, 64));
  const std::size_t count = rng.uniform_int(0, 5);
  for (std::size_t i = 0; i < count; ++i) {
    msg.pdu.varbinds.push_back({random_oid(rng), random_value(rng)});
  }
  return msg;
}

void expect_same_message(const snmp::Message& a, const snmp::Message& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.community, b.community);
  ASSERT_EQ(a.trap_v1.has_value(), b.trap_v1.has_value());
  if (a.trap_v1.has_value()) {
    EXPECT_EQ(a.trap_v1->enterprise, b.trap_v1->enterprise);
    EXPECT_EQ(a.trap_v1->agent_addr, b.trap_v1->agent_addr);
    EXPECT_EQ(a.trap_v1->generic_trap, b.trap_v1->generic_trap);
    EXPECT_EQ(a.trap_v1->specific_trap, b.trap_v1->specific_trap);
    EXPECT_EQ(a.trap_v1->time_stamp_ticks, b.trap_v1->time_stamp_ticks);
    EXPECT_EQ(a.trap_v1->varbinds, b.trap_v1->varbinds);
    return;
  }
  EXPECT_EQ(a.pdu.type, b.pdu.type);
  EXPECT_EQ(a.pdu.request_id, b.pdu.request_id);
  EXPECT_EQ(a.pdu.error_status, b.pdu.error_status);
  EXPECT_EQ(a.pdu.error_index, b.pdu.error_index);
  EXPECT_EQ(a.pdu.varbinds, b.pdu.varbinds);
}

TEST_P(FuzzSeeds, PduCodecRoundTripsRandomMessages) {
  Xoshiro256 rng(GetParam() ^ 0x9d0);
  for (int iter = 0; iter < 500; ++iter) {
    const snmp::Message msg = random_message(rng);
    const Bytes wire = snmp::encode_message(msg);
    const snmp::Message decoded = snmp::decode_message(wire);
    expect_same_message(msg, decoded);
    // Re-encoding is canonical: same bytes out.
    EXPECT_EQ(snmp::encode_message(decoded), wire);
  }
}

TEST_P(FuzzSeeds, PduDecoderSurvivesBitFlippedMessages) {
  Xoshiro256 rng(GetParam() ^ 0xbf11);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = snmp::encode_message(random_message(rng));
    const std::size_t flips = rng.uniform_int(1, 4);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t byte = rng.uniform_int(0, mutated.size() - 1);
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    snmp::Message decoded;
    try {
      decoded = snmp::decode_message(mutated);
    } catch (const snmp::BerError&) {
      continue;
    } catch (const BufferUnderflow&) {
      continue;
    }
    // Whatever the flips produced, a successfully decoded message must
    // re-encode and round-trip to the same fields.
    const Bytes wire = snmp::encode_message(decoded);
    expect_same_message(decoded, snmp::decode_message(wire));
  }
}

// --- Walker vs adversarial agent ----------------------------------------
//
// A raw responder on UDP/161 answers each walker request with mutated
// traffic: truncations, bit flips, non-increasing OIDs, empty varbind
// lists, garbage, exceptions, and error PDUs. Every walk must complete
// (callback fires — no crash, no hang, no infinite GETNEXT loop), and
// whatever is collected must be strictly increasing inside the subtree.

void run_adversarial_walks(snmp::SnmpVersion version, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host* manager = &net.add_host("manager");
  sim::Host* target = &net.add_host("target");
  net.add_host_interface(*manager, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(*target, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.2"));
  net.connect(*manager, "eth0", *target, "eth0");

  snmp::ClientConfig config;
  config.timeout = milliseconds(100);
  config.retries = 0;
  config.version = version;
  snmp::SnmpClient client(sim, manager->udp(), config);
  snmp::SubtreeWalker walker(client, 4);

  Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(version));
  const snmp::Oid root({1, 3, 6, 1, 2, 1, 2, 2});

  target->udp().bind(161, [&](const sim::Ipv4Packet& packet) {
    snmp::Message request;
    try {
      request = snmp::decode_message(packet.udp.payload);
    } catch (const snmp::BerError&) {
      return;
    } catch (const BufferUnderflow&) {
      return;
    }
    const snmp::Oid cursor = request.pdu.varbinds.empty()
                                 ? root
                                 : request.pdu.varbinds[0].oid;
    snmp::Message reply;
    reply.version = request.version;
    reply.community = request.community;
    reply.pdu.type = snmp::PduType::kGetResponse;
    reply.pdu.request_id = request.pdu.request_id;

    Bytes wire;
    switch (rng.uniform_int(0, 7)) {
      case 0: {  // well-formed continuation; sometimes exits the subtree
        snmp::Oid next = cursor;
        const std::size_t count = rng.uniform_int(1, 3);
        for (std::size_t i = 0; i < count; ++i) {
          next = next.child(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
          reply.pdu.varbinds.push_back(
              {next, snmp::SnmpValue(snmp::Counter32{7})});
        }
        if (rng.uniform_int(0, 2) == 0) {
          reply.pdu.varbinds.push_back(
              {snmp::Oid({9, 9}), snmp::SnmpValue(snmp::Null{})});
        }
        wire = snmp::encode_message(reply);
        break;
      }
      case 1: {  // truncated response: client must drop it, walk times out
        reply.pdu.varbinds.push_back(
            {cursor.child(1), snmp::SnmpValue(snmp::Counter32{7})});
        wire = snmp::encode_message(reply);
        wire.resize(rng.uniform_int(0, wire.size() - 1));
        break;
      }
      case 2: {  // single bit flip anywhere in a valid response
        reply.pdu.varbinds.push_back(
            {cursor.child(1), snmp::SnmpValue(snmp::Counter32{7})});
        wire = snmp::encode_message(reply);
        const std::size_t byte = rng.uniform_int(0, wire.size() - 1);
        wire[byte] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 3: {  // non-increasing OID: must end the walk, not loop forever
        reply.pdu.varbinds.push_back(
            {cursor, snmp::SnmpValue(snmp::Counter32{7})});
        wire = snmp::encode_message(reply);
        break;
      }
      case 4: {  // empty varbind list
        wire = snmp::encode_message(reply);
        break;
      }
      case 5: {  // pure garbage bytes
        wire.resize(rng.uniform_int(0, 48));
        for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next());
        break;
      }
      case 6: {  // endOfMibView exception varbind
        reply.pdu.varbinds.push_back(
            {cursor.child(1),
             snmp::SnmpValue(snmp::VarBindException::kEndOfMibView)});
        wire = snmp::encode_message(reply);
        break;
      }
      default: {  // error PDU; for v1 noSuchName is the normal walk end
        reply.pdu.error_status = request.version == snmp::SnmpVersion::kV1
                                     ? snmp::ErrorStatus::kNoSuchName
                                     : snmp::ErrorStatus::kGenErr;
        reply.pdu.error_index = 1;
        wire = snmp::encode_message(reply);
        break;
      }
    }
    target->udp().send(packet.src, packet.udp.src_port, 161,
                       std::move(wire));
  });

  for (int i = 0; i < 40; ++i) {
    bool done = false;
    walker.walk(target->ip(), "public", root, [&](snmp::WalkResult result) {
      done = true;
      for (std::size_t j = 0; j < result.varbinds.size(); ++j) {
        EXPECT_TRUE(result.varbinds[j].oid.starts_with(root));
        if (j > 0) {
          EXPECT_LT(result.varbinds[j - 1].oid, result.varbinds[j].oid);
        }
      }
    });
    sim.run_until(sim.now() + seconds(2));
    ASSERT_TRUE(done) << "walk " << i << " hung (seed " << seed << ")";
  }
}

TEST_P(FuzzSeeds, WalkerSurvivesAdversarialBulkResponses) {
  run_adversarial_walks(snmp::SnmpVersion::kV2c, GetParam());
}

TEST_P(FuzzSeeds, WalkerSurvivesAdversarialGetNextResponses) {
  run_adversarial_walks(snmp::SnmpVersion::kV1, GetParam());
}

// --- Trap listener vs truncated and bit-flipped notifications ----------
//
// Every datagram that reaches UDP/162 is counted exactly once, as
// received or as malformed, whatever a v1 Trap-PDU or v2 trap body holds.

TEST_P(FuzzSeeds, TrapListenerCountsTruncatedAndBitFlippedTraps) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host* manager = &net.add_host("manager");
  sim::Host* agent = &net.add_host("agent");
  net.add_host_interface(*manager, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(*agent, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.2"));
  net.connect(*manager, "eth0", *agent, "eth0");
  std::uint64_t delivered = 0;
  snmp::TrapListener listener(
      manager->udp(), [&](const snmp::TrapNotification&) { ++delivered; });

  Xoshiro256 rng(GetParam() ^ 0x7a95);
  snmp::Message v1;
  v1.version = snmp::SnmpVersion::kV1;
  snmp::TrapV1Pdu trap;
  trap.enterprise = random_oid(rng);
  trap.agent_addr = static_cast<std::uint32_t>(rng.next());
  trap.generic_trap = static_cast<snmp::GenericTrap>(rng.uniform_int(0, 6));
  trap.specific_trap = static_cast<std::int32_t>(rng.next());
  trap.time_stamp_ticks = static_cast<std::uint32_t>(rng.next());
  for (std::size_t i = rng.uniform_int(1, 3); i > 0; --i) {
    trap.varbinds.push_back({random_oid(rng), random_value(rng)});
  }
  v1.trap_v1 = std::move(trap);

  snmp::Message v2;
  v2.pdu.type = snmp::PduType::kSnmpV2Trap;
  v2.pdu.request_id = static_cast<std::int32_t>(rng.next());
  v2.pdu.varbinds = {
      {snmp::mib2::kSysUpTime.child(0),
       snmp::SnmpValue(snmp::TimeTicks{
           static_cast<std::uint32_t>(rng.next())})},
      {snmp::mib2::kSnmpTrapOid.child(0), snmp::SnmpValue(random_oid(rng))},
  };
  for (std::size_t i = rng.uniform_int(0, 2); i > 0; --i) {
    v2.pdu.varbinds.push_back({random_oid(rng), random_value(rng)});
  }

  const std::uint16_t sport = agent->udp().allocate_ephemeral_port();
  std::uint64_t sent = 0;
  const auto send = [&](Bytes wire) {
    ASSERT_TRUE(agent->udp().send(manager->ip(), sim::kSnmpTrapPort, sport,
                                  std::move(wire)));
    ++sent;
    sim.run_until(sim.now() + milliseconds(1));
  };
  for (const Bytes& wire : {snmp::encode_message(v1),
                            snmp::encode_message(v2)}) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      send(Bytes(wire.begin(), wire.begin() + cut));
    }
    for (int iter = 0; iter < 200; ++iter) {
      Bytes mutated = wire;
      for (std::size_t flips = rng.uniform_int(1, 4); flips > 0; --flips) {
        const std::size_t byte = rng.uniform_int(0, mutated.size() - 1);
        mutated[byte] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      send(std::move(mutated));
    }
    send(wire);
  }

  const snmp::TrapListenerStats& stats = listener.stats();
  EXPECT_EQ(stats.received + stats.malformed, sent);
  EXPECT_EQ(stats.received, delivered);
  EXPECT_GE(stats.received, 2u);  // at least the two intact traps
}

#if defined(NETQOS_FUZZ_LONG)
// Tier-2 build (netqos_soak_tests): a much larger seed sweep.
INSTANTIATE_TEST_SUITE_P(LongSeeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1000u, 1032u));
#else
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(11u, 222u, 3333u, 44444u));
#endif

}  // namespace
}  // namespace netqos
