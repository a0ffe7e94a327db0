// fabric_poll: the poll path at fabric scale.
//
// A seeded spine/leaf fabric of ~2,000 interfaces (~1,000 agents, every
// switch serving the bridge MIB) polled by four logical shards in this
// one thread, interface-weighted, with batched GETBULK table polls every
// 2 s. Sixteen watched host pairs (two hosts on one leaf each) carry a
// seeded constant flow over the middle of the run, so path_err_pct is
// the Table 2 error of a switch path. A few light flows between other
// leaves keep the switch FDBs populated. A seeded 2% of host agents go
// silent for part of the run (timeouts, backoff, quarantine and the
// §4.1 switch-port fallback). A small resource-manager query fleet reads
// path windows and health from the coordinator.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen/generator.h"
#include "monitor/distributed.h"
#include "monitor/report.h"
#include "netsim/services.h"
#include "query/engine.h"
#include "query/server.h"
#include "service.h"
#include "snmp/deploy.h"
#include "topology/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace netqos;

constexpr std::size_t kTargetInterfaces = 2000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWatchedPairs = 16;
constexpr std::size_t kLeafFlows = 6;
constexpr double kSilentShare = 0.02;
constexpr std::size_t kClients = 8;
constexpr std::size_t kSubscriberSlots = 6;
// 106 s gives 4 x 53 = 212 poll rounds, enough for a p95.
constexpr SimTime kEnd = 106 * kSecond;
// Watched flows run on [kFlowOn, kFlowOff); the zero-load background of
// each path is its mean over [kBackgroundFrom, kFlowOn).
constexpr SimTime kBackgroundFrom = 8 * kSecond;
constexpr SimTime kFlowOn = 30 * kSecond;
constexpr SimTime kFlowOff = 100 * kSecond;
constexpr SimDuration kSettle = 6 * kSecond;
// Polls per GETBULK response: the TablePoller's repeater budget plus the
// two scalars of the first sweep.
constexpr std::size_t kResponseVarbinds = 122;

struct Flow {
  std::string from;
  std::string to;
  load::RateProfile profile;
  double rate = 0;  // bytes/s while on
};

std::string host_name(std::size_t leaf, std::size_t h) {
  return "leaf" + std::to_string(leaf) + "h" + std::to_string(h);
}

/// Draws `n` distinct values from [0, size) (partial Fisher-Yates).
std::vector<std::size_t> draw_distinct(Xoshiro256& rng, std::size_t size,
                                       std::size_t n) {
  std::vector<std::size_t> pool(size);
  for (std::size_t i = 0; i < size; ++i) pool[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(pool[i], pool[rng.uniform_int(i, size - 1)]);
  }
  pool.resize(n);
  return pool;
}

}  // namespace

void run_fabric_poll(const Options& options, Report& report) {
  Harness harness(options, report);
  Xoshiro256 rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xfab);

  topo::FabricConfig fabric;
  fabric.target_interfaces = kTargetInterfaces;
  fabric.seed = options.seed;
  topo::NetworkTopology topology;
  harness.setup_step("topology",
                     [&] { topology = topo::generate_fabric(fabric); });

  sim::Simulator simulator;
  std::unique_ptr<sim::Network> network;
  harness.setup_step("network", [&] {
    network = sim::build_network(simulator, topology);
  });

  std::vector<snmp::DeployedAgent> agents;
  harness.setup_step("agents", [&] {
    agents = snmp::deploy_agents(simulator, *network, topology);
  });

  // Seeded inputs: stations, watched pairs, flows, silent agents, clients.
  const std::size_t leaves = topo::fabric_leaf_count(fabric);
  const std::size_t hosts = fabric.hosts_per_leaf;
  std::vector<std::string> stations;
  for (std::size_t s = 0; s < kShards; ++s) stations.push_back(host_name(s, 0));

  const auto leaf_order = draw_distinct(rng, leaves, leaves);
  std::vector<mon::PathKey> watched;
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < kWatchedPairs; ++i) {
    const std::size_t leaf = leaf_order[i];
    // Host 0 of every leaf is left out: leaves 0-3 use it as a station.
    const auto pick = draw_distinct(rng, hosts - 1, 2);
    const std::string a = host_name(leaf, pick[0] + 1);
    const std::string b = host_name(leaf, pick[1] + 1);
    watched.emplace_back(a, b);
    const double rate = kilobytes_per_second(rng.uniform(250, 400));
    flows.push_back(
        {a, b, load::RateProfile::pulse(kFlowOn, kFlowOff, rate), rate});
  }
  // Leaf-to-leaf conversations run both ways, so every switch on the
  // way learns both ends and stops flooding after the first frames.
  for (std::size_t i = 0; i < kLeafFlows; ++i) {
    const std::string a = host_name(leaf_order[kWatchedPairs + 2 * i],
                                    1 + rng.uniform_int(0, hosts - 2));
    const std::string b = host_name(leaf_order[kWatchedPairs + 2 * i + 1],
                                    1 + rng.uniform_int(0, hosts - 2));
    const double rate = kilobytes_per_second(rng.uniform(20, 40));
    const auto profile = load::RateProfile::pulse(2 * kSecond, kEnd, rate);
    flows.push_back({a, b, profile, rate});
    flows.push_back({b, a, profile, rate});
  }

  std::vector<std::size_t> host_agents;
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const bool station = std::find(stations.begin(), stations.end(),
                                   agents[i].node) != stations.end();
    if (network->find_host(agents[i].node) != nullptr && !station) {
      host_agents.push_back(i);
    }
  }
  const auto silent_count = static_cast<std::size_t>(
      std::lround(kSilentShare * static_cast<double>(agents.size())));
  std::set<std::string> silent;
  for (const std::size_t i :
       draw_distinct(rng, host_agents.size(), silent_count)) {
    snmp::SnmpAgent* agent = agents[host_agents[i]].agent.get();
    silent.insert(agents[host_agents[i]].node);
    const SimTime from = from_seconds(rng.uniform(20, 50));
    const SimTime until = from + from_seconds(rng.uniform(20, 30));
    simulator.schedule_at(from, [agent] { agent->set_responding(false); });
    simulator.schedule_at(until, [agent] { agent->set_responding(true); });
  }

  std::vector<sim::Host*> client_homes;
  while (client_homes.size() < kClients) {
    const std::string name = host_name(rng.uniform_int(0, leaves - 1),
                                       1 + rng.uniform_int(0, hosts - 2));
    if (silent.count(name) == 0) client_homes.push_back(network->find_host(name));
  }

  obs::MetricsRegistry registry;
  std::vector<double> rounds_ms;
  PathRecorder recorder;
  DispatchTiming dispatch;
  std::unique_ptr<mon::DistributedMonitor> dist;
  std::unique_ptr<query::QueryEngine> engine;
  std::unique_ptr<query::QueryServer> server;
  std::unique_ptr<QueryFleet> fleet;
  std::vector<std::unique_ptr<sim::DiscardService>> discards;
  std::vector<std::unique_ptr<load::LoadGenerator>> generators;
  std::unique_ptr<WireCensus> census;
  QueryMix mix;
  mix.windows = {20 * kSecond, 300 * kSecond};
  mix.groups = {query::GroupBy::kPath};

  harness.setup_step("monitor", [&] {
    mon::DistributedConfig config;
    config.partition = mon::PartitionStrategy::kInterfaceWeighted;
    config.base.batch_table_polls = true;
    config.base.metrics = &registry;
    // 200 us launch stagger de-bursts each shard's request train.
    config.base.scheduler.stagger = microseconds(200);
    std::vector<sim::Host*> station_hosts;
    for (const auto& name : stations) {
      station_hosts.push_back(network->find_host(name));
    }
    dist = std::make_unique<mon::DistributedMonitor>(simulator, topology,
                                                     station_hosts, config);
    if (harness.traced()) {
      dist->add_module(std::make_unique<DispatchOpen>(dispatch));
    }
    for (const auto& [a, b] : watched) dist->add_path(a, b);
    dist->modules().attach(recorder);
    for (const auto& worker : dist->workers()) {
      worker->add_module(std::make_unique<RoundRecorder>(simulator, rounds_ms));
    }

    query::QueryServerConfig server_config;
    server_config.max_subscribers = kSubscriberSlots;
    engine = std::make_unique<query::QueryEngine>(dist->coordinator());
    server = std::make_unique<query::QueryServer>(
        simulator, *station_hosts.front(), *engine, server_config);
    server->attach_agent_events(dist->coordinator());
    FleetConfig fleet_config;
    fleet_config.clients = kClients;
    fleet_config.mix = mix;
    fleet_config.think_min = 400 * kMillisecond;
    fleet_config.think_max = 600 * kMillisecond;
    fleet_config.stop = kEnd - 5 * kSecond;
    fleet_config.seed = rng.next();
    fleet = std::make_unique<QueryFleet>(
        simulator, client_homes, station_hosts.front()->ip(), fleet_config);

    for (const Flow& flow : flows) {
      sim::Host* dst = network->find_host(flow.to);
      discards.push_back(std::make_unique<sim::DiscardService>(*dst));
      generators.push_back(std::make_unique<load::LoadGenerator>(
          simulator, *network->find_host(flow.from), dst->ip(), flow.profile));
      generators.back()->start();
    }
    if (harness.traced()) {
      dist->add_module(std::make_unique<DispatchClose>(dispatch));
      census = std::make_unique<WireCensus>(simulator, *network);
    }
    dist->start();
  });
  harness.setup_done();

  harness.run(simulator, kEnd, kSecond, [&] {
    SliceCounters counters;
    counters.events = simulator.events_executed();
    counters.frames = net_counters(*network).frames;
    counters.polls = dist->aggregate_stats().agent_polls;
    counters.queries = fleet->issued();
    return counters;
  });

  std::size_t interfaces = 0;
  for (const auto& node : topology.nodes()) interfaces += node.interfaces.size();

  ServiceView view;
  view.registry = &registry;
  view.monitor = dist->aggregate_stats();
  // The shards share one registry, so any worker's client view already
  // holds the fleet-wide SNMP totals.
  view.client = dist->coordinator().client_stats();
  view.agents = &agents;
  view.rounds_ms = &rounds_ms;
  view.fleet = fleet.get();
  view.server = server->stats();
  view.recorder = &recorder;
  view.watched = watched;
  view.dispatch = &dispatch;
  view.interface_store = &dist->stats_db().history();
  for (const auto& worker : dist->workers()) {
    view.path_stores.push_back(&worker->history());
  }
  view.interfaces = interfaces;
  view.events = simulator.events_executed();
  view.net = net_counters(*network);
  view.simulated = kEnd;

  harness.report_run(kEnd, view.monitor.agent_polls -
                               view.monitor.agent_poll_failures,
                     view.events);
  report_simulated(view, report);
  report.count("interfaces", interfaces);
  report.count("agents", agents.size());
  report.count("silent_agents", silent.size());

  // Table 2 error of every watched path whose hosts stayed responsive,
  // and freshness of those paths at the end of the run.
  double err_sum = 0;
  std::size_t err_paths = 0;
  std::size_t stale = 0;
  std::string stale_names;
  for (std::size_t i = 0; i < watched.size(); ++i) {
    const auto& [a, b] = watched[i];
    if (silent.count(a) != 0 || silent.count(b) != 0) continue;
    const TimeSeries used = used_series(recorder.trace(watched[i]));
    const double background =
        mon::estimate_background(used, kBackgroundFrom, kFlowOn);
    const auto row = mon::analyze_window(used, kFlowOn, kFlowOff,
                                         flows[i].rate, background, kSettle);
    err_sum += std::fabs(row.percent_error);
    ++err_paths;
    if (dist->coordinator().current_usage(a, b).freshness !=
        mon::Freshness::kFresh) {
      ++stale;
      stale_names += " " + a + "<->" + b;
    }
  }
  report.metric("path_err_pct",
                err_sum / static_cast<double>(std::max<std::size_t>(1, err_paths)),
                "%");
  report.count("path_err_paths", err_paths);
  report.check("fabric_fresh_paths", stale == 0 && err_paths > 0,
               std::to_string(err_paths - stale) + "/" +
                   std::to_string(err_paths) +
                   " responsive watched paths fresh at end" + stale_names);

  if (!harness.traced()) return;
  report_layer_counters(view, report);
  census->report(report);
  LayerProbe probe;
  probe.agents = &agents;
  probe.network = network.get();
  probe.response_varbinds = kResponseVarbinds;
  probe.interface_store = &dist->stats_db().history();
  probe.path_store = &dist->coordinator().history();
  probe.engine = engine.get();
  probe.mix = mix;
  probe.monitor = &dist->coordinator();
  probe.paths = watched;
  probe.now = simulator.now();
  probe_layers(probe, report, harness.spans());
  harness.write_spans();
}

}  // namespace perfbench
