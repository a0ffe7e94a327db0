// Reporting shared by both workloads: the simulated end-to-end metrics,
// the output digest and the counter-based per-layer metrics, read from
// the monitor, SNMP, history, query and probe layers after the run.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.h"
#include "history/store.h"
#include "layers.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "probe/estimator.h"
#include "query/server.h"
#include "snmp/client.h"
#include "snmp/deploy.h"

namespace perfbench {

struct ServiceView {
  const netqos::obs::MetricsRegistry* registry = nullptr;
  netqos::mon::MonitorStats monitor;
  netqos::snmp::ClientStats client;
  const std::vector<netqos::snmp::DeployedAgent>* agents = nullptr;
  const std::vector<double>* rounds_ms = nullptr;
  const QueryFleet* fleet = nullptr;
  netqos::query::QueryServerStats server;
  const PathRecorder* recorder = nullptr;
  std::vector<netqos::mon::PathKey> watched;
  const DispatchTiming* dispatch = nullptr;
  const netqos::hist::HistoryStore* interface_store = nullptr;
  std::vector<const netqos::hist::HistoryStore*> path_stores;
  std::size_t interfaces = 0;
  std::uint64_t events = 0;
  NetCounters net;
  std::vector<const netqos::probe::Estimator*> estimators;
  SimDuration simulated = 0;
};

/// A recorded path's used-bandwidth series, for mon::analyze_window.
netqos::TimeSeries used_series(const PathTrace& trace);

/// Digest over every watched path's used and available series plus the
/// final MonitorStats, all rendered "%.17g".
std::uint64_t service_digest(const ServiceView& view);

/// poll_round_sim_ms_p50/p95, poll_fail_ratio, query_sim_ms_p50/p99 and
/// query_fail_ratio, with their sample counts, and the digest. Checks
/// the sample counts the reported percentiles need.
void report_simulated(const ServiceView& view, Report& report);

/// Counter-based per-layer metrics (netsim, snmp, monitor, history,
/// query, probe) of a traced run.
void report_layer_counters(const ServiceView& view, Report& report);

}  // namespace perfbench
