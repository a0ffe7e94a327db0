// Query engine: read-only windowed aggregates and health snapshots over a
// NetworkMonitor.
//
// The CoMo-style split: the monitor core keeps polling and appending to
// its bounded HistoryStores; this engine is a pure reader that answers
// "min/mean/max/p95 over [begin, end)" grouped by interface, path, or
// host, and point-in-time health (scheduler agent states, path staleness,
// violation and predictive-warning status). It owns no storage and
// mutates nothing, so any number of concurrent readers — the wire server
// fans in here — cost the poll hot path nothing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "history/store.h"
#include "monitor/monitor.h"
#include "monitor/qos.h"
#include "query/proto.h"

namespace netqos::query {

class QueryEngine {
 public:
  /// The monitor (and any attached detectors) must outlive the engine.
  explicit QueryEngine(const mon::NetworkMonitor& monitor)
      : monitor_(monitor) {}

  /// Reactive violation state feeds PathHealthRow::violated when set.
  void set_violation_detector(const mon::ViolationDetector* detector) {
    violations_ = detector;
  }
  /// Predictive warning state feeds PathHealthRow::warning when set.
  void set_predictive_detector(const mon::PredictiveDetector* detector) {
    predictive_ = detector;
  }

  /// Active-probing status source. The engine stays decoupled from
  /// src/probe: whoever owns estimators (netqosmon) snapshots them into
  /// rows; health() appends the provider's rows verbatim.
  using ProbeStatusProvider = std::function<std::vector<ProbeStatusRow>()>;
  void set_probe_status_provider(ProbeStatusProvider provider) {
    probe_status_ = std::move(provider);
  }

  /// Evaluates a windowed query at server time `now`. end == 0 resolves
  /// to now; begin < 0 to end - |begin| (a trailing window). Rows come
  /// back key-sorted; series with no samples in the window are omitted.
  WindowResponse window(const WindowRequest& request, SimTime now) const;

  /// Point-in-time health: every polled agent's scheduler state plus
  /// every monitored path's current usage, staleness, and detector state.
  HealthResponse health(SimTime now) const;

  /// Registered measurement modules with their delivery/error telemetry
  /// and self-description notes.
  ModulesResponse modules(SimTime now) const;

  const mon::NetworkMonitor& monitor() const { return monitor_; }

 private:
  void path_rows(const std::string& selector, SimTime begin, SimTime end,
                 std::vector<WindowRow>& rows) const;

  const mon::NetworkMonitor& monitor_;
  const mon::ViolationDetector* violations_ = nullptr;
  const mon::PredictiveDetector* predictive_ = nullptr;
  ProbeStatusProvider probe_status_;
};

/// The store-level halves of QueryEngine::window's interface and host
/// groupings, over any store keyed "if:<node>/<ifDescr>": they append one
/// row per selected "if:" series (interface) or node (host, members
/// merged in key order; keys without a '/' are skipped). Series with no
/// samples in [begin, end) add no row. QueryEngine::window sorts the rows.
void interface_window_rows(const hist::HistoryStore& store,
                           const std::string& selector, SimTime begin,
                           SimTime end, std::vector<WindowRow>& rows);
void host_window_rows(const hist::HistoryStore& store,
                      const std::string& selector, SimTime begin,
                      SimTime end, std::vector<WindowRow>& rows);

}  // namespace netqos::query
