#include "service.h"

#include <algorithm>
#include <string>

namespace perfbench {

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

std::uint64_t counter(const netqos::obs::MetricsRegistry& registry,
                      const std::string& name, const std::string& store) {
  const auto* c = registry.find_counter(name, {{"store", store}});
  return c == nullptr ? 0 : c->value();
}

}  // namespace

netqos::TimeSeries used_series(const PathTrace& trace) {
  netqos::TimeSeries series;
  for (std::size_t k = 0; k < trace.time.size(); ++k) {
    series.add(trace.time[k], trace.used[k]);
  }
  return series;
}

std::uint64_t service_digest(const ServiceView& view) {
  Digest digest;
  for (const auto& key : view.watched) {
    const PathTrace& trace = view.recorder->trace(key);
    digest.add(key.first);
    digest.add(key.second);
    for (std::size_t i = 0; i < trace.time.size(); ++i) {
      digest.add(static_cast<std::uint64_t>(trace.time[i]));
      digest.add(trace.used[i]);
      digest.add(trace.available[i]);
    }
  }
  const netqos::mon::MonitorStats& s = view.monitor;
  for (const std::uint64_t value :
       {s.rounds_started, s.rounds_completed, s.rounds_failed, s.agent_polls,
        s.agent_poll_failures, s.resolve_failures, s.polls_skipped,
        s.quarantine_transitions}) {
    digest.add(static_cast<double>(value));
  }
  return digest.value();
}

void report_simulated(const ServiceView& view, Report& report) {
  const std::vector<double>& rounds = *view.rounds_ms;
  report.metric("poll_round_sim_ms_p50", quantile(rounds, 0.50), "sim_ms");
  report.metric("poll_round_sim_ms_p95", quantile(rounds, 0.95), "sim_ms");
  report.count("poll_round_samples", rounds.size());
  report.check("poll_round_samples", rounds.size() >= 200,
               std::to_string(rounds.size()) + " rounds (p95 needs 200)");

  report.metric("poll_fail_ratio",
                ratio(view.monitor.agent_poll_failures,
                      view.monitor.agent_polls),
                "ratio");

  const QueryFleet& fleet = *view.fleet;
  report.metric("query_sim_ms_p50", quantile(fleet.rtt_ms(), 0.50), "sim_ms");
  report.metric("query_sim_ms_p99", quantile(fleet.rtt_ms(), 0.99), "sim_ms");
  report.count("query_samples", fleet.rtt_ms().size());
  report.check("query_samples", fleet.rtt_ms().size() >= 1000,
               std::to_string(fleet.rtt_ms().size()) +
                   " answered queries (p99 needs 1000)");
  report.metric("query_fail_ratio",
                ratio(fleet.timeouts() + fleet.errors(), fleet.issued()),
                "ratio");
  report.count("query_issued", fleet.issued());
  report.count("query_timeouts", fleet.timeouts());
  report.count("query_errors", fleet.errors());

  report.set_digest(service_digest(view));
}

void report_layer_counters(const ServiceView& view, Report& report) {
  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };

  report.metric("netsim.events", as_double(view.events), "events");
  report.metric("netsim.frames", as_double(view.net.frames), "frames");
  report.metric("netsim.events_per_frame",
                ratio(view.events, view.net.frames), "events/frame");
  report.metric("netsim.frames_dropped", as_double(view.net.dropped),
                "frames");

  const netqos::snmp::ClientStats& c = view.client;
  std::uint64_t agent_requests = 0;
  for (const auto& agent : *view.agents) {
    agent_requests += agent.agent->stats().requests;
  }
  report.metric("snmp.requests", as_double(c.requests_sent), "requests");
  report.metric("snmp.responses", as_double(c.responses), "responses");
  report.metric("snmp.timeouts", as_double(c.timeouts), "requests");
  report.metric("snmp.retries", as_double(c.retries), "requests");
  report.metric("snmp.responses_per_request",
                ratio(c.responses, c.requests_sent), "ratio");
  report.metric("snmp.payload_bytes_per_poll",
                ratio(c.payload_bytes_sent + c.payload_bytes_received,
                      view.monitor.agent_polls),
                "B/poll");
  const auto* rtt =
      view.registry->find_histogram("netqos_snmp_client_rtt_seconds");
  report.metric("snmp.rtt_sim_ms_p95",
                rtt == nullptr ? 0.0 : 1e3 * rtt->data().percentile(0.95),
                "sim_ms");
  report.metric("snmp.agent_requests", as_double(agent_requests), "requests");

  const netqos::mon::MonitorStats& m = view.monitor;
  report.metric("monitor.rounds", as_double(m.rounds_completed), "rounds");
  report.metric("monitor.polls", as_double(m.agent_polls), "polls");
  report.metric("monitor.poll_failures", as_double(m.agent_poll_failures),
                "polls");
  report.metric("monitor.polls_skipped", as_double(m.polls_skipped), "polls");
  report.metric("monitor.quarantine_transitions",
                as_double(m.quarantine_transitions), "transitions");
  report.metric("monitor.path_samples", as_double(view.recorder->samples()),
                "samples");
  report.metric("monitor.module_dispatch_us_p50",
                quantile(view.dispatch->round_us, 0.50), "us");
  report.metric("monitor.module_dispatch_us_p99",
                quantile(view.dispatch->round_us, 0.99), "us");
  report.count("monitor.module_dispatch_samples",
               view.dispatch->round_us.size());

  const netqos::obs::MetricsRegistry& r = *view.registry;
  std::size_t series = view.interface_store->series_count();
  std::size_t footprint = view.interface_store->footprint_bytes();
  for (const auto* store : view.path_stores) {
    series += store->series_count();
    footprint += store->footprint_bytes();
  }
  report.metric("history.samples",
                as_double(counter(r, "netqos_history_samples_total",
                                  "interfaces") +
                          counter(r, "netqos_history_samples_total", "paths")),
                "samples");
  report.metric("history.series", static_cast<double>(series), "series");
  report.metric(
      "history.downsample_merges",
      as_double(counter(r, "netqos_history_downsample_merges_total",
                        "interfaces") +
                counter(r, "netqos_history_downsample_merges_total", "paths")),
      "merges");
  // The interface store's reserved bytes per interface: what
  // scale_monitor reports as rss_per_interface. Real RSS is peak_rss_mb.
  report.metric("history.bytes_per_interface",
                ratio(view.interface_store->footprint_bytes(),
                      view.interfaces),
                "B");
  report.metric("history.footprint_mb", static_cast<double>(footprint) / 1e6,
                "MB");
  report.metric("history.queries",
                as_double(counter(r, "netqos_history_queries_total",
                                  "interfaces") +
                          counter(r, "netqos_history_queries_total", "paths")),
                "queries");

  const netqos::query::QueryServerStats& s = view.server;
  const std::uint64_t requests = s.window_requests + s.health_requests +
                                 s.modules_requests + s.subscribes +
                                 s.unsubscribes;
  report.metric("query.requests", as_double(requests), "requests");
  report.metric("query.bad_requests", as_double(s.bad_requests), "requests");
  report.metric("query.bytes_out_per_request", ratio(s.bytes_sent, requests),
                "B/request");

  std::uint64_t packets = 0, wire_bytes = 0, estimates = 0;
  double intrusiveness = 0;
  for (const auto* estimator : view.estimators) {
    const auto& stats = estimator->stats();
    packets += stats.probes_sent;
    wire_bytes += stats.probe_wire_bytes + stats.report_wire_bytes;
    estimates += estimator->estimates().size();
    intrusiveness += estimator->intrusiveness(view.simulated);
  }
  report.metric("probe.packets", as_double(packets), "packets");
  report.metric("probe.wire_bytes", as_double(wire_bytes), "B");
  report.metric("probe.estimates", as_double(estimates), "estimates");
  report.metric("probe.estimates_per_kpacket",
                1000.0 * ratio(estimates, packets), "est/kpacket");
  report.metric("probe.intrusiveness", intrusiveness, "ratio");
}

}  // namespace perfbench
