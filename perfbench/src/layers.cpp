#include "layers.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "netsim/node.h"
#include "snmp/ber_view.h"
#include "snmp/oid.h"
#include "snmp/pdu.h"

namespace perfbench {

namespace sim = netqos::sim;
namespace snmp = netqos::snmp;

NetCounters net_counters(const sim::Network& network) {
  NetCounters counters;
  for (const auto& link : network.links()) {
    counters.frames += link->frames_carried();
    counters.dropped +=
        link->frames_dropped_down() + link->frames_dropped_loss();
  }
  for (const auto& node : network.nodes()) {
    for (const auto& nic : node->interfaces()) {
      counters.dropped += nic->counters().if_out_discards;
    }
  }
  return counters;
}

// ------------------------------------------------------------ WireCensus

WireCensus::WireCensus(sim::Simulator& sim, sim::Network& network)
    : tracer_(sim, /*capacity=*/1) {
  tracer_.set_filter([this](const sim::TraceRecord& record) {
    const auto has = [&record](std::uint16_t port) {
      return record.src_port == port || record.dst_port == port;
    };
    total_ += record.wire_bytes;
    if (has(sim::kSnmpPort) || has(sim::kSnmpTrapPort)) {
      snmp_ += record.wire_bytes;
    } else if (has(sim::kQueryPort)) {
      query_ += record.wire_bytes;
    } else if (has(sim::kProbePort)) {
      probe_ += record.wire_bytes;
    } else if (has(sim::kDiscardPort)) {
      load_ += record.wire_bytes;
    }
    return false;
  });
  for (const auto& link : network.links()) tracer_.attach(*link, "");
}

void WireCensus::report(Report& report) const {
  const double total = static_cast<double>(std::max<std::uint64_t>(total_, 1));
  report.metric("wire.snmp_share_pct", 100.0 * static_cast<double>(snmp_) / total,
                "%");
  report.metric("wire.query_share_pct",
                100.0 * static_cast<double>(query_) / total, "%");
  report.metric("wire.probe_share_pct",
                100.0 * static_cast<double>(probe_) / total, "%");
  report.metric("wire.load_share_pct", 100.0 * static_cast<double>(load_) / total,
                "%");
}

// ---------------------------------------------------------- LayerProbes

namespace {

/// Repeats `fn`, which appends the microseconds of the calls it timed,
/// until `min_samples` samples exist and `min_s` host seconds passed, or
/// until `max_s` passed.
template <typename Fn>
std::vector<double> sample_us(Fn&& fn, std::size_t min_samples, double min_s,
                              double max_s) {
  std::vector<double> samples;
  const std::int64_t begin = host_ns();
  for (;;) {
    fn(samples);
    const double elapsed = 1e-9 * static_cast<double>(host_ns() - begin);
    if (elapsed >= max_s) break;
    if (samples.size() >= min_samples && elapsed >= min_s) break;
  }
  return samples;
}

double elapsed_us(std::int64_t begin_ns) {
  return 1e-3 * static_cast<double>(host_ns() - begin_ns);
}

/// The switch agent with the largest MIB (ifTable cells plus learned
/// FDB rows) at the end of the run.
snmp::DeployedAgent* largest_switch(const LayerProbe& probe) {
  snmp::DeployedAgent* best = nullptr;
  for (auto& agent : *probe.agents) {
    if (probe.network->find_switch(agent.node) == nullptr) continue;
    if (best == nullptr || agent.agent->mib().size() > best->agent->mib().size()) {
      best = &agent;
    }
  }
  if (best == nullptr) throw std::runtime_error("workload has no switch agent");
  return best;
}

void probe_snmp(const LayerProbe& probe, Report& report, HostSpans& spans,
                HostSpans::Id parent) {
  snmp::DeployedAgent& agent = *largest_switch(probe);
  snmp::MibTree& mib = agent.agent->mib();

  // ifTable walk, one timed get_next per step.
  const auto walk_span = spans.begin("layer.snmp.iftable_walk", parent);
  std::vector<snmp::VarBind> table;
  const auto steps = sample_us(
      [&](std::vector<double>& out) {
        snmp::Oid cursor = snmp::mib2::kIfEntry;
        const bool collect = table.empty();
        for (;;) {
          const std::int64_t t0 = host_ns();
          auto next = mib.get_next(cursor);
          out.push_back(elapsed_us(t0));
          if (!next || !next->first.starts_with(snmp::mib2::kIfEntry)) break;
          cursor = next->first;
          if (collect) table.push_back({next->first, next->second});
        }
      },
      1000, 0.0, 2.0);
  spans.end(walk_span, {{"calls", static_cast<double>(steps.size())}});
  report.metric("snmp.mib_get_next_us_p50", quantile(steps, 0.50), "us");
  report.metric("snmp.mib_get_next_us_p99", quantile(steps, 0.99), "us");
  report.count("snmp.mib_get_next_samples", steps.size());

  // Whole dot1dTpFdbPort walk.
  const auto fdb_span = spans.begin("layer.snmp.fdb_walk", parent);
  std::size_t rows = 0;
  const auto walks = sample_us(
      [&](std::vector<double>& out) {
        snmp::Oid cursor = snmp::mib2::kDot1dTpFdbPort;
        rows = 0;
        const std::int64_t t0 = host_ns();
        for (;;) {
          auto next = mib.get_next(cursor);
          if (!next || !next->first.starts_with(snmp::mib2::kDot1dTpFdbPort)) {
            break;
          }
          cursor = next->first;
          ++rows;
        }
        out.push_back(elapsed_us(t0));
      },
      5, 0.0, 2.0);
  spans.end(fdb_span, {{"rows", static_cast<double>(rows)}});
  report.metric("snmp.mib_fdb_walk_ms", 1e-3 * quantile(walks, 0.5), "ms");
  report.count("snmp.mib_fdb_rows", rows);

  // BER codec on a response of the size the workload polls.
  snmp::Message response;
  response.pdu.type = snmp::PduType::kGetResponse;
  response.pdu.request_id = 4242;
  const std::size_t varbinds = std::min(probe.response_varbinds, table.size());
  response.pdu.varbinds.assign(table.begin(),
                               table.begin() + static_cast<long>(varbinds));
  const auto ber_span = spans.begin("layer.snmp.ber", parent);
  std::size_t sink = 0;
  auto per_call_us = [](auto&& call) {
    std::size_t calls = 0;
    const std::int64_t t0 = host_ns();
    while (host_ns() - t0 < 100'000'000) {  // 100 ms of calls
      for (int i = 0; i < 64; ++i) call();
      calls += 64;
    }
    return elapsed_us(t0) / static_cast<double>(calls);
  };
  const double encode_us =
      per_call_us([&] { sink += snmp::encode_message(response).size(); });
  const netqos::Bytes wire = snmp::encode_message(response);
  const double decode_us = per_call_us([&] {
    snmp::MessageHeadView head =
        snmp::decode_message_head(std::span<const std::uint8_t>(wire));
    snmp::VarBindView vb;
    while (snmp::next_varbind(head.varbinds, vb)) sink += vb.value.tag;
  });
  spans.end(ber_span, {{"varbinds", static_cast<double>(varbinds)},
                       {"bytes", static_cast<double>(wire.size())},
                       {"sink", static_cast<double>(sink % 2)}});
  report.metric("snmp.ber_encode_us", encode_us, "us");
  report.metric("snmp.ber_decode_view_us", decode_us, "us");
  report.count("snmp.ber_message_varbinds", varbinds);
}

void probe_history(const LayerProbe& probe, Report& report, HostSpans& spans,
                   HostSpans::Id parent) {
  struct Target {
    const netqos::hist::HistoryStore* store;
    std::string key;
  };
  std::vector<Target> targets;
  for (const auto* store : {probe.interface_store, probe.path_store}) {
    const auto keys = store->keys();
    const std::size_t stride = std::max<std::size_t>(1, keys.size() / 128);
    for (std::size_t i = 0; i < keys.size(); i += stride) {
      targets.push_back({store, keys[i]});
    }
  }
  const auto span = spans.begin("layer.history.query", parent);
  double sink = 0;
  const auto us = sample_us(
      [&](std::vector<double>& out) {
        for (const Target& target : targets) {
          for (const SimDuration window : probe.mix.windows) {
            const std::int64_t t0 = host_ns();
            sink += target.store->query(target.key, probe.now - window,
                                        probe.now).mean;
            out.push_back(elapsed_us(t0));
          }
        }
      },
      1000, 0.0, 2.0);
  spans.end(span, {{"queries", static_cast<double>(us.size())},
                   {"sink", sink > 0 ? 1.0 : 0.0}});
  report.metric("history.query_us_p50", quantile(us, 0.50), "us");
  report.metric("history.query_us_p99", quantile(us, 0.99), "us");
  report.count("history.query_samples", us.size());
}

void probe_query(const LayerProbe& probe, Report& report, HostSpans& spans,
                 HostSpans::Id parent) {
  const auto window_span = spans.begin("layer.query.window", parent);
  std::size_t rows = 0;
  const auto window_us = sample_us(
      [&](std::vector<double>& out) {
        for (const auto group : probe.mix.groups) {
          for (const SimDuration window : probe.mix.windows) {
            netqos::query::WindowRequest request;
            request.group = group;
            request.begin = -window;
            const std::int64_t t0 = host_ns();
            rows += probe.engine->window(request, probe.now).rows.size();
            out.push_back(elapsed_us(t0));
          }
        }
      },
      1000, 0.0, 2.0);
  spans.end(window_span, {{"calls", static_cast<double>(window_us.size())},
                          {"rows", static_cast<double>(rows)}});
  report.metric("query.window_us_p50", quantile(window_us, 0.50), "us");
  report.metric("query.window_us_p99", quantile(window_us, 0.99), "us");
  report.count("query.window_samples", window_us.size());

  const auto health_span = spans.begin("layer.query.health", parent);
  const auto health_us = sample_us(
      [&](std::vector<double>& out) {
        const std::int64_t t0 = host_ns();
        rows += probe.engine->health(probe.now).agents.size();
        out.push_back(elapsed_us(t0));
      },
      100, 0.2, 2.0);
  spans.end(health_span, {{"calls", static_cast<double>(health_us.size())}});
  report.metric("query.health_us_p50", quantile(health_us, 0.50), "us");
}

void probe_monitor(const LayerProbe& probe, Report& report, HostSpans& spans,
                   HostSpans::Id parent) {
  const auto span = spans.begin("layer.monitor.current_usage", parent);
  double sink = 0;
  const auto us = sample_us(
      [&](std::vector<double>& out) {
        for (const auto& [from, to] : probe.paths) {
          const std::int64_t t0 = host_ns();
          sink += probe.monitor->current_usage(from, to).available;
          out.push_back(elapsed_us(t0));
        }
      },
      1000, 0.1, 2.0);
  spans.end(span, {{"calls", static_cast<double>(us.size())},
                   {"sink", sink > 0 ? 1.0 : 0.0}});
  double total = 0;
  for (const double v : us) total += v;
  report.metric("monitor.current_usage_us",
                total / static_cast<double>(us.size()), "us");
}

}  // namespace

void probe_layers(const LayerProbe& probe, Report& report, HostSpans& spans) {
  const auto parent = spans.begin("layers");
  probe_snmp(probe, report, spans, parent);
  probe_history(probe, report, spans, parent);
  probe_query(probe, report, spans, parent);
  probe_monitor(probe, report, spans, parent);
  spans.end(parent);
}

}  // namespace perfbench
