// lirtss_service: the paper's Figure 3 testbed run as the full service.
//
// One monitor on L polls the testbed's agents with the paper's
// per-varbind GETs. A seeded 500 s cycle, repeated, replays the shapes
// of Figures 4-6: a four-step staircase onto hub host N1, overlapping
// pulses onto N1 and N2 (the §3.3 hub sum), then pulses onto switch
// hosts S2 and S3. The reactive and predictive detectors watch the hub
// paths; a periodic probe stream on S1->N1 feeds the hybrid module; the
// query server on L answers 32 closed-loop simulated clients on S2-S6
// whose windows reach back 20 s, 5 min and 30 min, across the raw and
// downsampled history tiers. Once a cycle S2's agent goes silent for
// 50 s from a seeded start, so the poll-failure path is exercised too.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen/generator.h"
#include "monitor/qos.h"
#include "monitor/report.h"
#include "netsim/background.h"
#include "netsim/services.h"
#include "probe/hybrid.h"
#include "probe/periodic.h"
#include "probe/sink.h"
#include "query/engine.h"
#include "query/server.h"
#include "service.h"
#include "snmp/deploy.h"
#include "spec/testbed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace netqos;

constexpr SimDuration kCycle = 500 * kSecond;
constexpr int kCycles = 3;
constexpr SimTime kEnd = kCycles * kCycle;
constexpr SimDuration kSettle = 6 * kSecond;
constexpr std::size_t kClients = 32;
constexpr std::size_t kSubscriberSlots = 24;
// Hub paths must keep this much available bandwidth (detectors).
constexpr double kRequiredKBps = 700;
// One per-varbind GET of a one-interface host: sysUpTime plus six
// ifEntry columns.
constexpr std::size_t kResponseVarbinds = 7;

/// A constant-load window with its expected bottleneck usage.
struct Window {
  mon::PathKey path;
  SimTime begin = 0;
  SimTime end = 0;
  double generated = 0;  // bytes/s
  SimTime background_from = 0;
  SimTime background_to = 0;
};

}  // namespace

void run_lirtss_service(const Options& options, Report& report) {
  Harness harness(options, report);
  Xoshiro256 rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x1a7);

  spec::SpecFile specfile;
  harness.setup_step("topology", [&] { specfile = spec::lirtss_testbed(); });
  const topo::NetworkTopology& topology = specfile.topology;

  sim::Simulator simulator;
  std::unique_ptr<sim::Network> network;
  harness.setup_step("network", [&] {
    network = sim::build_network(simulator, topology);
  });
  auto host = [&](const char* name) -> sim::Host& {
    return *network->find_host(name);
  };

  std::vector<snmp::DeployedAgent> agents;
  harness.setup_step("agents", [&] {
    snmp::DeployOptions deploy;
    deploy.iftable.cached = true;
    deploy.iftable.refresh_jitter = 120 * kMillisecond;
    deploy.trap_sink = host("L").ip();
    agents = snmp::deploy_agents(simulator, *network, topology, deploy);
  });

  // Seeded load schedule and its constant-load windows.
  const mon::PathKey hub1{"S1", "N1"}, hub2{"S1", "N2"};
  const mon::PathKey sw2{"S1", "S2"}, sw3{"S1", "S3"};
  const std::vector<mon::PathKey> watched = {hub1, hub2, sw2, sw3};
  load::RateProfile to_n1, to_n2, to_s2, to_s3;
  std::vector<Window> windows;
  std::vector<std::pair<SimTime, SimTime>> outages;
  for (int c = 0; c < kCycles; ++c) {
    const SimTime o = c * kCycle;
    const auto at = [o](int s) { return o + s * kSecond; };
    const auto kb = [](double v) { return kilobytes_per_second(v); };
    const double base = kb(rng.uniform(80, 120));
    const double step = kb(rng.uniform(60, 100));
    const double a = kb(rng.uniform(150, 250));
    const double b = kb(rng.uniform(150, 250));
    const double c2 = kb(rng.uniform(1500, 2500));
    const double c3 = kb(rng.uniform(1500, 2500));
    // Zero-load background: the idle tail of the previous cycle plus
    // this cycle's idle head.
    const SimTime bg_from = c == 0 ? at(6) : at(-30);
    const SimTime bg_to = at(30);
    for (int k = 0; k < 4; ++k) {
      to_n1.add_step(at(30 + 60 * k), base + k * step);
      for (const auto& path : {hub1, hub2}) {
        windows.push_back({path, at(30 + 60 * k), at(90 + 60 * k),
                           base + k * step, bg_from, bg_to});
      }
    }
    to_n1.add_step(at(270), 0).add_step(at(310), a).add_step(at(390), 0);
    to_n2.add_step(at(270), b).add_step(at(350), 0);
    for (const auto& path : {hub1, hub2}) {
      windows.push_back({path, at(270), at(310), b, bg_from, bg_to});
      windows.push_back({path, at(310), at(350), a + b, bg_from, bg_to});
      windows.push_back({path, at(350), at(390), a, bg_from, bg_to});
    }
    to_s2.add_step(at(390), c2).add_step(at(430), 0);
    to_s3.add_step(at(430), c3).add_step(at(470), 0);
    windows.push_back({sw2, at(390), at(430), c2, bg_from, bg_to});
    windows.push_back({sw3, at(430), at(470), c3, bg_from, bg_to});
    // A seeded start on the poll cadence and a fixed length keep the
    // number of failed polls per outage the same in every cycle.
    const SimTime down = at(41 + 2 * static_cast<int>(rng.uniform_int(0, 50)));
    outages.emplace_back(down, down + 50 * kSecond);
  }

  obs::MetricsRegistry registry;
  std::vector<double> rounds_ms;
  PathRecorder recorder;
  DispatchTiming dispatch;
  std::vector<std::unique_ptr<sim::DiscardService>> discards;
  std::unique_ptr<sim::BackgroundTraffic> background;
  std::unique_ptr<probe::ProbeSink> sink;
  std::unique_ptr<probe::PeriodicStreamEstimator> estimator;
  std::unique_ptr<mon::NetworkMonitor> monitor;
  std::unique_ptr<mon::ViolationDetector> violations;
  std::unique_ptr<mon::PredictiveDetector> predictive;
  std::unique_ptr<query::QueryEngine> engine;
  std::unique_ptr<query::QueryServer> server;
  std::unique_ptr<QueryFleet> fleet;
  std::vector<std::unique_ptr<load::LoadGenerator>> generators;
  std::unique_ptr<WireCensus> census;
  QueryMix mix;
  mix.windows = {20 * kSecond, 300 * kSecond, 1800 * kSecond};
  mix.groups = {query::GroupBy::kPath, query::GroupBy::kInterface,
                query::GroupBy::kHost};

  harness.setup_step("monitor", [&] {
    std::vector<sim::Host*> hosts;
    for (const auto& node : topology.nodes()) {
      if (auto* h = network->find_host(node.name)) {
        hosts.push_back(h);
        discards.push_back(std::make_unique<sim::DiscardService>(*h));
      }
    }
    sim::BackgroundConfig bg;
    bg.mean_rate = 22'000.0;
    bg.seed = rng.next();
    background = std::make_unique<sim::BackgroundTraffic>(simulator, hosts, bg);

    mon::MonitorConfig config;
    config.poll_interval = 2 * kSecond;
    config.retention =
        hist::RetentionPolicy::for_span(600 * kSecond, config.poll_interval);
    config.metrics = &registry;
    monitor = std::make_unique<mon::NetworkMonitor>(simulator, topology,
                                                    host("L"), config);
    if (harness.traced()) {
      monitor->add_module(std::make_unique<DispatchOpen>(dispatch));
    }
    for (const auto& [from, to] : watched) monitor->add_path(from, to);
    monitor->modules().attach(recorder);
    monitor->add_module(std::make_unique<RoundRecorder>(simulator, rounds_ms));

    violations = std::make_unique<mon::ViolationDetector>(*monitor);
    predictive = std::make_unique<mon::PredictiveDetector>(*monitor);
    for (const auto& [from, to] : {hub1, hub2}) {
      violations->add_requirement(from, to, kilobytes_per_second(kRequiredKBps));
      predictive->add_requirement(from, to, kilobytes_per_second(kRequiredKBps));
    }

    sink = std::make_unique<probe::ProbeSink>(host("N1"));
    estimator = std::make_unique<probe::PeriodicStreamEstimator>(
        host("S1"), host("N1").ip(), probe::ProbedPath{"S1", "N1", mbps(10)});
    estimator->attach_metrics(registry);
    auto hybrid = std::make_unique<probe::HybridEstimator>();
    hybrid->set_estimator(*estimator);
    hybrid->set_detector(*predictive);
    monitor->add_module(std::move(hybrid));

    query::QueryServerConfig server_config;
    server_config.max_subscribers = kSubscriberSlots;
    engine = std::make_unique<query::QueryEngine>(*monitor);
    server = std::make_unique<query::QueryServer>(simulator, host("L"),
                                                  *engine, server_config);
    server->attach(*violations);
    server->attach(*predictive);
    server->attach_agent_events(*monitor);
    engine->set_probe_status_provider([&estimator] {
      query::ProbeStatusRow row;
      row.estimator = estimator->name();
      row.from = estimator->path().from;
      row.to = estimator->path().to;
      row.convergence = static_cast<std::uint8_t>(estimator->convergence());
      row.running = estimator->running();
      const auto latest = estimator->latest();
      row.has_estimate = latest.has_value();
      row.available = latest.value_or(0.0);
      row.estimates = estimator->estimates().size();
      row.wire_bytes = estimator->stats().probe_wire_bytes +
                       estimator->stats().report_wire_bytes;
      return std::vector<query::ProbeStatusRow>{row};
    });
    FleetConfig fleet_config;
    fleet_config.clients = kClients;
    fleet_config.mix = mix;
    fleet_config.think_min = 200 * kMillisecond;
    fleet_config.think_max = 300 * kMillisecond;
    fleet_config.stop = kEnd - 5 * kSecond;
    fleet_config.seed = rng.next();
    fleet = std::make_unique<QueryFleet>(
        simulator,
        std::vector<sim::Host*>{&host("S2"), &host("S3"), &host("S4"),
                                &host("S5"), &host("S6")},
        host("L").ip(), fleet_config);

    const std::pair<const char*, load::RateProfile*> loads[] = {
        {"N1", &to_n1}, {"N2", &to_n2}, {"S2", &to_s2}, {"S3", &to_s3}};
    for (const auto& [to, profile] : loads) {
      generators.push_back(std::make_unique<load::LoadGenerator>(
          simulator, host("L"), host(to).ip(), *profile));
      generators.back()->start();
    }
    snmp::SnmpAgent* s2 = snmp::find_agent(agents, "S2")->agent.get();
    for (const auto& [down, up] : outages) {
      simulator.schedule_at(down, [s2] { s2->set_responding(false); });
      simulator.schedule_at(up, [s2] { s2->set_responding(true); });
    }
    if (harness.traced()) {
      monitor->add_module(std::make_unique<DispatchClose>(dispatch));
      census = std::make_unique<WireCensus>(simulator, *network);
    }
    estimator->start();
    background->start();
    monitor->start();
  });
  harness.setup_done();

  harness.run(simulator, kEnd, 10 * kSecond, [&] {
    SliceCounters counters;
    counters.events = simulator.events_executed();
    counters.frames = net_counters(*network).frames;
    counters.polls = monitor->stats().agent_polls;
    counters.queries = fleet->issued();
    return counters;
  });

  std::size_t interfaces = 0;
  for (const auto& node : topology.nodes()) interfaces += node.interfaces.size();

  ServiceView view;
  view.registry = &registry;
  view.monitor = monitor->stats();
  view.client = monitor->client_stats();
  view.agents = &agents;
  view.rounds_ms = &rounds_ms;
  view.fleet = fleet.get();
  view.server = server->stats();
  view.recorder = &recorder;
  view.watched = watched;
  view.dispatch = &dispatch;
  view.interface_store = &monitor->stats_db().history();
  view.path_stores = {&monitor->history()};
  view.interfaces = interfaces;
  view.events = simulator.events_executed();
  view.net = net_counters(*network);
  view.estimators = {estimator.get()};
  view.simulated = kEnd;

  harness.report_run(kEnd, view.monitor.agent_polls -
                               view.monitor.agent_poll_failures,
                     view.events);
  report_simulated(view, report);
  report.count("agents", agents.size());
  report.count("predictive_warnings", predictive->warning_count());
  report.count("qos_events", violations->events().size());

  // Table 2 error over every constant-load window.
  double err_sum = 0;
  std::size_t empty_windows = 0;
  for (const Window& w : windows) {
    const TimeSeries used = used_series(recorder.trace(w.path));
    if (used.stats_between(w.begin + kSettle, w.end).count() == 0 ||
        used.stats_between(w.background_from, w.background_to).count() == 0) {
      ++empty_windows;
    }
    const double background_level =
        mon::estimate_background(used, w.background_from, w.background_to);
    err_sum += std::fabs(mon::analyze_window(used, w.begin, w.end, w.generated,
                                             background_level, kSettle)
                             .percent_error);
  }
  const double path_err = err_sum / static_cast<double>(windows.size());
  report.metric("path_err_pct", path_err, "%");
  report.count("path_err_windows", windows.size());
  // Paper Table 2: averages 2-4% above the generated load, individual
  // samples 5-8% off (one 16% outlier). The paper gives no lower limit;
  // an error near zero is only suspect when a window went unsampled.
  report.check("table2_band", empty_windows == 0 && path_err <= 8.0,
               "mean |%err| " + std::to_string(path_err) + " over " +
                   std::to_string(windows.size() - empty_windows) + " of " +
                   std::to_string(windows.size()) +
                   " sampled windows; the Table 2 band is [0, 8]");

  // §3.3: both hub paths bottleneck on the hub domain, whose usage is
  // the sum over its members, so they must report identical usage.
  const PathTrace& n1 = recorder.trace(hub1);
  const PathTrace& n2 = recorder.trace(hub2);
  bool hub_equal = !n1.time.empty() && n1.time == n2.time;
  for (std::size_t k = 0; hub_equal && k < n1.used.size(); ++k) {
    hub_equal = n1.used[k] == n2.used[k];
  }
  report.check("hub_rule", hub_equal,
               "S1<->N1 and S1<->N2 usage differ (" +
                   std::to_string(n1.time.size()) + " vs " +
                   std::to_string(n2.time.size()) + " samples)");

  if (!harness.traced()) return;
  report_layer_counters(view, report);
  census->report(report);
  LayerProbe probe;
  probe.agents = &agents;
  probe.network = network.get();
  probe.response_varbinds = kResponseVarbinds;
  probe.interface_store = &monitor->stats_db().history();
  probe.path_store = &monitor->history();
  probe.engine = engine.get();
  probe.mix = mix;
  probe.monitor = monitor.get();
  probe.paths = watched;
  probe.now = simulator.now();
  probe_layers(probe, report, harness.spans());
  harness.write_spans();
}

}  // namespace perfbench
