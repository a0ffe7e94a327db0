#include "query/engine.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string_view>

#include "history/store.h"

namespace netqos::query {
namespace {

bool selected(const std::string& key, const std::string& selector) {
  return selector.empty() || key.find(selector) != std::string::npos;
}

WindowRow row_from_summary(std::string key,
                           const hist::WindowSummary& summary) {
  WindowRow row;
  row.key = std::move(key);
  row.samples = static_cast<std::uint32_t>(summary.samples);
  row.min = summary.min;
  row.mean = summary.mean;
  row.max = summary.max;
  row.p95 = summary.p95;
  row.resolution = summary.resolution;
  row.complete = summary.complete;
  return row;
}

/// Folds one member series summary into a host aggregate. Mean is
/// count-weighted; p95 is the max of member p95s (conservative: the
/// true cross-series quantile needs the raw samples); resolution is the
/// coarsest member; complete only when every member is.
void merge_into(WindowRow& into, const hist::WindowSummary& summary) {
  if (summary.samples == 0) return;
  if (into.samples == 0) {
    into.min = summary.min;
    into.max = summary.max;
    into.mean = summary.mean;
    into.p95 = summary.p95;
    into.resolution = summary.resolution;
    into.complete = summary.complete;
    into.samples = static_cast<std::uint32_t>(summary.samples);
    return;
  }
  const double total =
      static_cast<double>(into.samples) + static_cast<double>(summary.samples);
  into.mean = (into.mean * static_cast<double>(into.samples) +
               summary.mean * static_cast<double>(summary.samples)) /
              total;
  into.min = std::min(into.min, summary.min);
  into.max = std::max(into.max, summary.max);
  into.p95 = std::max(into.p95, summary.p95);
  into.resolution = std::max(into.resolution, summary.resolution);
  into.complete = into.complete && summary.complete;
  into.samples += static_cast<std::uint32_t>(summary.samples);
}

constexpr std::string_view kInterfacePrefix = "if:";

}  // namespace

WindowResponse QueryEngine::window(const WindowRequest& request,
                                   SimTime now) const {
  WindowResponse response;
  response.server_now = now;
  response.end = request.end == 0 ? now : request.end;
  response.begin = request.begin < 0 ? response.end + request.begin
                                     : request.begin;
  if (response.begin < 0) response.begin = 0;
  if (response.end < response.begin) response.end = response.begin;

  switch (request.group) {
    case GroupBy::kInterface:
      interface_window_rows(monitor_.stats_db().history(), request.selector,
                            response.begin, response.end, response.rows);
      break;
    case GroupBy::kPath:
      path_rows(request.selector, response.begin, response.end,
                response.rows);
      break;
    case GroupBy::kHost:
      host_window_rows(monitor_.stats_db().history(), request.selector,
                       response.begin, response.end, response.rows);
      break;
  }
  std::sort(response.rows.begin(), response.rows.end(),
            [](const WindowRow& a, const WindowRow& b) { return a.key < b.key; });
  return response;
}

void QueryEngine::path_rows(const std::string& selector, SimTime begin,
                            SimTime end, std::vector<WindowRow>& rows) const {
  const hist::HistoryStore& store = monitor_.history();
  for (const auto& [from, to] : monitor_.monitored_paths()) {
    for (const char* metric : {"used", "avail"}) {
      const std::string key = hist::path_series_key(from, to, metric);
      if (!selected(key, selector)) continue;
      const hist::WindowSummary summary = store.query(key, begin, end);
      if (summary.samples == 0) continue;
      rows.push_back(row_from_summary(key, summary));
    }
  }
}

void interface_window_rows(const hist::HistoryStore& store,
                           const std::string& selector, SimTime begin,
                           SimTime end, std::vector<WindowRow>& rows) {
  store.for_each_prefixed(
      kInterfacePrefix,
      [&](const std::string& key, const hist::Series& series) {
        if (!selected(key, selector)) return;
        const hist::WindowSummary summary = store.query(series, begin, end);
        if (summary.samples == 0) return;
        rows.push_back(row_from_summary(key, summary));
      });
}

void host_window_rows(const hist::HistoryStore& store,
                      const std::string& selector, SimTime begin,
                      SimTime end, std::vector<WindowRow>& rows) {
  // "if:<node>/<ifDescr>" — the node is the host grouping key. Every key
  // of one node starts with "if:<node>/", so a node's keys are
  // contiguous in key order and each host row is folded in one run.
  const std::size_t first = rows.size();
  std::optional<std::string_view> node;  // node of the current run
  bool wanted = false;                   // rows.back() is its row
  store.for_each_prefixed(
      kInterfacePrefix,
      [&](const std::string& key, const hist::Series& series) {
        const std::string_view name =
            std::string_view(key).substr(kInterfacePrefix.size());
        const std::size_t slash = name.find('/');
        if (slash == std::string_view::npos) return;
        if (name.substr(0, slash) != node) {
          node = name.substr(0, slash);
          std::string host_key = "host:";
          host_key += *node;
          wanted = selected(host_key, selector);
          if (wanted) rows.emplace_back().key = std::move(host_key);
        }
        if (wanted) merge_into(rows.back(), store.query(series, begin, end));
      });
  // A host with no sample in the window gets no row.
  const auto empty = [](const WindowRow& row) { return row.samples == 0; };
  rows.erase(std::remove_if(rows.begin() + static_cast<std::ptrdiff_t>(first),
                            rows.end(), empty),
             rows.end());
}

HealthResponse QueryEngine::health(SimTime now) const {
  HealthResponse response;
  response.server_now = now;

  for (const mon::PollScheduler::AgentState& agent :
       monitor_.scheduler().agents()) {
    AgentHealthRow row;
    row.node = agent.node;
    row.health = static_cast<std::uint8_t>(agent.health);
    row.consecutive_failures =
        static_cast<std::uint32_t>(agent.consecutive_failures);
    row.polls = agent.polls;
    row.failures = agent.failures;
    row.quarantines = agent.quarantines;
    row.next_due = agent.next_due;
    response.agents.push_back(std::move(row));
  }

  for (const auto& [from, to] : monitor_.monitored_paths()) {
    const mon::PathUsage usage = monitor_.current_usage(from, to);
    PathHealthRow row;
    row.from = from;
    row.to = to;
    row.used = usage.used_at_bottleneck;
    row.available = usage.available;
    row.freshness = static_cast<std::uint8_t>(usage.freshness);
    row.max_sample_age = usage.max_sample_age;
    row.complete = usage.complete;
    row.link_down = usage.link_down;
    row.violated = violations_ != nullptr && violations_->in_violation(from, to);
    row.warning = predictive_ != nullptr && predictive_->warning_active(from, to);
    response.paths.push_back(std::move(row));
  }

  if (probe_status_) {
    response.probes = probe_status_();
  }
  return response;
}

ModulesResponse QueryEngine::modules(SimTime now) const {
  ModulesResponse response;
  response.server_now = now;
  for (const mon::ModuleStatus& status : monitor_.modules().statuses()) {
    ModuleStatusRow row;
    row.name = status.name;
    row.samples = status.samples;
    row.errors = status.errors;
    row.footprint_bytes = status.footprint_bytes;
    for (const mon::ModuleNote& note : status.notes) {
      row.notes.emplace_back(note.key, note.value);
    }
    response.modules.push_back(std::move(row));
  }
  return response;
}

}  // namespace netqos::query
