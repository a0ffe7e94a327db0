// Per-layer measurements of a traced run: the traffic census taken
// during the run, and direct host-timed calls into each layer on the
// final state, after the simulation has stopped.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.h"
#include "history/store.h"
#include "monitor/monitor.h"
#include "netsim/network.h"
#include "netsim/trace.h"
#include "query/engine.h"
#include "snmp/deploy.h"

namespace perfbench {

/// Frames and drops summed over every link and interface of a network.
struct NetCounters {
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;
};
NetCounters net_counters(const netqos::sim::Network& network);

/// Bytes carried per hop, by UDP port family. A FrameTracer on every
/// link whose filter keeps no record and only tallies: the census
/// observes frames, it never alters them.
class WireCensus {
 public:
  WireCensus(netqos::sim::Simulator& sim, netqos::sim::Network& network);
  /// wire.snmp_share_pct, wire.query_share_pct, wire.probe_share_pct and
  /// wire.load_share_pct (DISCARD: generated loads plus background).
  void report(Report& report) const;

 private:
  netqos::sim::FrameTracer tracer_;
  std::uint64_t total_ = 0;
  std::uint64_t snmp_ = 0;
  std::uint64_t query_ = 0;
  std::uint64_t probe_ = 0;
  std::uint64_t load_ = 0;
};

/// Inputs of the post-run layer calls.
struct LayerProbe {
  std::vector<netqos::snmp::DeployedAgent>* agents = nullptr;
  netqos::sim::Network* network = nullptr;
  /// Varbinds in one poll response as the workload polls (a GETBULK
  /// sweep, or a per-interface GET).
  std::size_t response_varbinds = 0;
  const netqos::hist::HistoryStore* interface_store = nullptr;
  const netqos::hist::HistoryStore* path_store = nullptr;
  const netqos::query::QueryEngine* engine = nullptr;
  QueryMix mix;
  const netqos::mon::NetworkMonitor* monitor = nullptr;
  std::vector<netqos::mon::PathKey> paths;
  SimTime now = 0;
};

/// Times MibTree::get_next walks, the BER codec, HistoryStore queries,
/// QueryEngine::window/health and NetworkMonitor::current_usage, each
/// under its own span. Must run after the simulation has stopped:
/// ifTable reads arm the agent's snapshot refresh on the simulator, and
/// none of these calls may feed back into the simulated run.
void probe_layers(const LayerProbe& probe, Report& report, HostSpans& spans);

}  // namespace perfbench
