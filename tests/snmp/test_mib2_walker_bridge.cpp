// Mib2IfTable semantics (incl. the agent-side cache artifact), subtree
// walking, bridge MIB, and agent deployment.
#include <gtest/gtest.h>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/bridge.h"
#include "snmp/client.h"
#include "snmp/deploy.h"
#include "snmp/walker.h"
#include "spec/testbed.h"

namespace netqos::snmp {
namespace {

TEST(Mib2IfTable, ServesLiveCountersWithoutCache) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));

  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")},
                    IfTableConfig{.cached = false});
  EXPECT_EQ(*mib.get(mib2::kIfNumber.child(0)), SnmpValue(std::int64_t{1}));
  EXPECT_EQ(as_counter32(*mib.get(
                mib2::if_column(mib2::kIfInOctetsColumn, 1))),
            0u);

  // Mutate the live counters directly: visible immediately (no cache).
  // Use deliver() with a crafted frame addressed to the NIC.
  sim::EthernetFrame frame;
  frame.dst = h.find_interface("eth0")->mac();
  frame.ip.udp.padding = 100;
  h.find_interface("eth0")->deliver(sim::make_frame(frame));
  EXPECT_GT(as_counter32(*mib.get(
                mib2::if_column(mib2::kIfInOctetsColumn, 1))),
            0u);
  EXPECT_EQ(table.refreshes(), 0u);
}

TEST(Mib2IfTable, CacheServesStaleSnapshotUntilInterval) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  sim::Nic* nic = h.find_interface("eth0");

  MibTree mib;
  Mib2IfTable table(mib, sim, {nic}, IfTableConfig{.cached = true});
  const Oid oid = mib2::if_column(mib2::kIfInOctetsColumn, 1);

  // The construction snapshot (t=0) saw counter 0.
  EXPECT_EQ(as_counter32(*mib.get(oid)), 0u);
  EXPECT_EQ(table.refreshes(), 1u);

  // Traffic arrives; the query above armed an async refresh, but until
  // it completes the agent still reports the stale snapshot.
  sim::EthernetFrame frame;
  frame.dst = nic->mac();
  frame.ip.udp.padding = 500;
  nic->deliver(sim::make_frame(frame));
  EXPECT_EQ(as_counter32(*mib.get(oid)), 0u)
      << "bytes must be counted in a LATER message (paper §4.3.1)";

  // Once the post-query refresh lands, the bytes appear.
  sim.run_until(seconds(1));
  EXPECT_GT(as_counter32(*mib.get(oid)), 0u);
  EXPECT_EQ(table.refreshes(), 2u);
}

TEST(Mib2IfTable, OneRefreshPerQueryBurst) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")},
                    IfTableConfig{.cached = true});
  const Oid oid = mib2::if_column(mib2::kIfInOctetsColumn, 1);
  // A burst of queries (one poll PDU touches many columns) arms exactly
  // one refresh.
  for (int i = 0; i < 10; ++i) mib.get(oid);
  sim.run_until(seconds(1));
  EXPECT_EQ(table.refreshes(), 2u);  // construction + one async
}

TEST(Mib2IfTable, IndexOfMapsNics) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(h, "eth1", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.2"));
  MibTree mib;
  Mib2IfTable table(mib, sim,
                    {h.find_interface("eth0"), h.find_interface("eth1")});
  EXPECT_EQ(table.index_of(*h.find_interface("eth0")), 1u);
  EXPECT_EQ(table.index_of(*h.find_interface("eth1")), 2u);
  EXPECT_EQ(table.interface_count(), 2u);
}

TEST(Mib2IfTable, PhysAddressServed) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")});
  const auto value = mib.get(mib2::if_column(mib2::kIfPhysAddressColumn, 1));
  ASSERT_TRUE(value.has_value());
  const auto& raw = std::get<std::string>(*value);
  ASSERT_EQ(raw.size(), 6u);
  const auto mac = h.find_interface("eth0")->mac().octets();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(raw[i]), mac[i]);
  }
}

/// Full LIRTSS deployment for walker/bridge tests.
class DeployedFixture : public ::testing::Test {
 protected:
  DeployedFixture() : specfile(spec::lirtss_testbed()) {
    net = sim::build_network(sim, specfile.topology);
    DeployOptions options;
    options.agent.hiccup_probability = 0.0;
    agents = deploy_agents(sim, *net, specfile.topology, options);
    client = std::make_unique<SnmpClient>(
        sim, net->find_host("L")->udp());
  }

  /// Walks dot1dTpFdbPort on sw0, `bulk_size` rows per GETBULK, and
  /// returns the rows.
  std::vector<VarBind> walk_fdb(std::size_t bulk_size = 16) {
    std::optional<WalkResult> got;
    SubtreeWalker walker(*client, bulk_size);
    walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
                mib2::kDot1dTpFdbPort,
                [&](WalkResult r) { got = std::move(r); });
    sim.run_until(sim.now() + seconds(5));
    EXPECT_TRUE(got.has_value() && got->ok);
    return got.has_value() ? got->varbinds : std::vector<VarBind>{};
  }

  /// The port number `mac` has in `rows`, or 0 when it has no row.
  static std::int64_t fdb_port(const std::vector<VarBind>& rows,
                               const sim::MacAddress& mac) {
    for (const auto& vb : rows) {
      if (vb.oid == fdb_instance(mac)) return std::get<std::int64_t>(vb.value);
    }
    return 0;
  }

  spec::SpecFile specfile;
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::vector<DeployedAgent> agents;
  std::unique_ptr<SnmpClient> client;
};

TEST_F(DeployedFixture, DeploysExactlyDeclaredAgents) {
  // L, S1, S2, N1, N2, sw0.
  EXPECT_EQ(agents.size(), 6u);
  EXPECT_NE(find_agent(agents, "sw0"), nullptr);
  EXPECT_NE(find_agent(agents, "N2"), nullptr);
  EXPECT_EQ(find_agent(agents, "S3"), nullptr);  // no daemon by spec
  EXPECT_EQ(find_agent(agents, "missing"), nullptr);
}

TEST_F(DeployedFixture, WalkIfDescrOnSwitch) {
  std::optional<WalkResult> got;
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
              mib2::kIfEntry.child(mib2::kIfDescrColumn),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  ASSERT_EQ(got->varbinds.size(), 8u);  // p1..p8
  EXPECT_EQ(std::get<std::string>(got->varbinds[0].value), "p1");
  EXPECT_EQ(std::get<std::string>(got->varbinds[7].value), "p8");
}

TEST_F(DeployedFixture, WalkUnreachableAgentReportsTimeout) {
  std::optional<WalkResult> got;
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.13"),  // S3: no agent
              "public", mib2::kIfEntry,
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(30));
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_EQ(got->error, "timeout");
}

TEST_F(DeployedFixture, WalkerRejectsConcurrentWalks) {
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
              mib2::kIfEntry, [](WalkResult) {});
  EXPECT_TRUE(walker.busy());
  EXPECT_THROW(walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
                           mib2::kIfEntry, [](WalkResult) {}),
               std::logic_error);
  sim.run_until(seconds(5));
  EXPECT_FALSE(walker.busy());
}

TEST_F(DeployedFixture, BridgeMibExposesLearnedMacs) {
  // Traffic teaches the switch where hosts live.
  sim::Host* l = net->find_host("L");
  sim::Host* s1 = net->find_host("S1");
  s1->udp().bind(9, [](const sim::Ipv4Packet&) {});
  const auto sport = l->udp().allocate_ephemeral_port();
  l->udp().send(s1->ip(), 9, sport, {}, 10);
  sim.run_until(seconds(1));

  // At least L's MAC learned on port p1 (index 1).
  EXPECT_EQ(fdb_port(walk_fdb(), l->find_interface("eth0")->mac()), 1);
}

TEST_F(DeployedFixture, BridgeMibShowsNewlyLearnedMacOnNextWalk) {
  sim::Host* s1 = net->find_host("S1");
  sim::Host* s2 = net->find_host("S2");
  const auto s2_mac = s2->find_interface("hme0")->mac();
  s1->udp().bind(9, [](const sim::Ipv4Packet&) {});

  const auto before = walk_fdb();
  EXPECT_EQ(fdb_port(before, s2_mac), 0);

  s2->udp().send(s1->ip(), 9, s2->udp().allocate_ephemeral_port(), {}, 10);
  sim.run_until(sim.now() + seconds(1));

  const auto after = walk_fdb();
  EXPECT_EQ(fdb_port(after, s2_mac), 3);  // S2 hangs off p3
  EXPECT_EQ(after.size(), before.size() + 1);
}

TEST_F(DeployedFixture, BridgeMibFollowsMacThatMovesPort) {
  sim::Switch* sw = net->find_switch("sw0");
  sim::Host* s1 = net->find_host("S1");
  sim::Host* s2 = net->find_host("S2");
  const auto s1_mac = s1->find_interface("hme0")->mac();
  s2->udp().bind(9, [](const sim::Ipv4Packet&) {});
  s1->udp().send(s2->ip(), 9, s1->udp().allocate_ephemeral_port(), {}, 10);
  sim.run_until(sim.now() + seconds(1));

  const auto before = walk_fdb();
  EXPECT_EQ(fdb_port(before, s1_mac), 2);  // S1 hangs off p2

  // S1's MAC now speaks from p4: same FDB size, different port.
  const std::size_t fdb_size = sw->fdb().size();
  sim::EthernetFrame moved;
  moved.src = s1_mac;
  moved.dst = sim::MacAddress::from_id(0xbeef);
  sw->on_frame(*sw->find_interface("p4"), sim::make_frame(moved));
  ASSERT_EQ(sw->fdb().size(), fdb_size);

  const auto after = walk_fdb();
  EXPECT_EQ(fdb_port(after, s1_mac), 4);
  EXPECT_EQ(after.size(), before.size());
}

TEST_F(DeployedFixture, BridgeMibBulkWalkReturnsWholeFdbInOrder) {
  sim::Host* s1 = net->find_host("S1");
  s1->udp().bind(9, [](const sim::Ipv4Packet&) {});
  for (const char* name : {"S2", "S3", "S4", "N1", "N2"}) {
    sim::Host* host = net->find_host(name);
    host->udp().send(s1->ip(), 9, host->udp().allocate_ephemeral_port(), {},
                     10);
  }
  sim.run_until(sim.now() + seconds(1));

  // Bulk steps smaller than the table so the walk spans several GETBULKs.
  const auto rows = walk_fdb(/*bulk_size=*/3);
  EXPECT_EQ(rows.size(), net->find_switch("sw0")->fdb().size());
  EXPECT_GT(rows.size(), 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].oid, rows[i].oid);
  }
}

TEST(DeployErrors, SnmpOnHubRejected) {
  auto specfile = spec::lirtss_testbed();
  // Corrupt the spec: demand SNMP on the hub.
  topo::NetworkTopology hacked;
  for (auto node : specfile.topology.nodes()) {
    if (node.kind == topo::NodeKind::kHub) node.snmp_enabled = true;
    hacked.add_node(node);
  }
  for (const auto& conn : specfile.topology.connections()) {
    hacked.add_connection(conn);
  }
  sim::Simulator sim;
  auto net = sim::build_network(sim, hacked);
  EXPECT_THROW(deploy_agents(sim, *net, hacked), std::invalid_argument);
}

}  // namespace
}  // namespace netqos::snmp
