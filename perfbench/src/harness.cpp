#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

namespace mon = netqos::mon;
namespace query = netqos::query;

std::int64_t host_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::count(const std::string& name, std::uint64_t value) {
  counts_[name] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_[name] = {ok, detail};
}

bool Report::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& entry) { return entry.second.ok; });
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::write_json(std::ostream& out) const {
  out << "{\"ok\":" << (ok() ? "true" : "false") << ",\"digest\":\"";
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, digest_);
  out << digest << "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ",") << '"' << name << "\":{\"value\":"
        << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "},\"counts\":{";
  first = true;
  for (const auto& [name, value] : counts_) {
    out << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  out << "},\"checks\":{";
  first = true;
  for (const auto& [name, c] : checks_) {
    out << (first ? "" : ",") << '"' << name << "\":{\"ok\":"
        << (c.ok ? "true" : "false") << ",\"detail\":\""
        << netqos::obs::json_escape(c.detail) << "\"}";
    first = false;
  }
  out << "}}\n";
}

// ------------------------------------------------------------- HostSpans

HostSpans::Id HostSpans::begin(std::string name, std::optional<Id> parent) {
  spans_.push_back({std::move(name), parent, host_ns(), 0, {}});
  return spans_.size() - 1;
}

void HostSpans::end(Id id, std::map<std::string, double> args) {
  spans_.at(id).end_ns = host_ns();
  spans_.at(id).args = std::move(args);
}

void HostSpans::write_jsonl(std::ostream& out) const {
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    out << "{\"name\":\"" << netqos::obs::json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"id\":" << id
        << ",\"ts\":" << json_number(1e-3 * static_cast<double>(span.begin_ns))
        << ",\"dur\":"
        << json_number(1e-3 * static_cast<double>(span.end_ns - span.begin_ns))
        << ",\"args\":{";
    bool first = true;
    if (span.parent) {
      out << "\"parent\":" << *span.parent;
      first = false;
    }
    for (const auto& [key, value] : span.args) {
      out << (first ? "" : ",") << '"' << key << "\":" << json_number(value);
      first = false;
    }
    out << "}}\n";
  }
}

// ---------------------------------------------------------------- Digest

void Digest::add(std::string_view text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // field separator
  hash_ *= 0x100000001b3ULL;
}

void Digest::add(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  add(std::string_view(buf));
}

void Digest::add(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  add(std::string_view(buf));
}

// --------------------------------------------------------------- Modules

void RoundRecorder::on_round_end(SimTime round_start) {
  rounds_ms_.push_back(1e3 * netqos::to_seconds(sim_.now() - round_start));
}

void PathRecorder::on_path_sample(const mon::PathKey& key, SimTime time,
                                  const mon::PathUsage& usage) {
  PathTrace& trace = traces_[key];
  trace.time.push_back(time);
  trace.used.push_back(usage.used_at_bottleneck);
  trace.available.push_back(usage.available);
  ++samples_;
}

const PathTrace& PathRecorder::trace(const mon::PathKey& key) const {
  static const PathTrace kEmpty;
  const auto it = traces_.find(key);
  return it == traces_.end() ? kEmpty : it->second;
}

void DispatchOpen::open() {
  if (timing_.open) return;
  timing_.open = true;
  timing_.opened_ns = host_ns();
}

void DispatchOpen::on_path_sample(const mon::PathKey&, SimTime,
                                  const mon::PathUsage&) {
  open();
}

void DispatchOpen::produce(mon::ModuleCore&, SimTime) { open(); }

void DispatchClose::on_round_end(SimTime) {
  if (!timing_.open) return;
  timing_.open = false;
  timing_.round_us.push_back(
      1e-3 * static_cast<double>(host_ns() - timing_.opened_ns));
}

// ------------------------------------------------------------ QueryFleet

QueryFleet::QueryFleet(netqos::sim::Simulator& sim,
                       const std::vector<netqos::sim::Host*>& homes,
                       netqos::sim::Ipv4Address server, FleetConfig config)
    : sim_(sim), config_(std::move(config)) {
  netqos::Xoshiro256 seeder(config_.seed);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    auto client = std::make_unique<Client>();
    client->client = std::make_unique<query::QueryClient>(
        sim, *homes[i % homes.size()], server);
    client->rng = netqos::Xoshiro256(seeder.next());
    Client* raw = client.get();
    clients_.push_back(std::move(client));
    // Staggered starts, one client every 37 ms; the first request of
    // every client subscribes to the event stream.
    sim.schedule_at(10 * netqos::kSecond + static_cast<SimDuration>(i) * 37 *
                                               netqos::kMillisecond,
                    [this, raw] {
                      ++issued_;
                      raw->client->subscribe([this, raw](query::QueryResult r) {
                        complete(*raw, r);
                      });
                    });
  }
}

void QueryFleet::complete(Client& client, const query::QueryResult& result) {
  if (result.ok()) {
    rtt_ms_.push_back(1e3 * netqos::to_seconds(result.rtt));
  } else if (result.status == query::QueryResult::Status::kTimeout) {
    ++timeouts_;
  } else {
    ++errors_;
  }
  const auto span = static_cast<std::uint64_t>(config_.think_max -
                                               config_.think_min);
  const SimDuration think =
      config_.think_min +
      static_cast<SimDuration>(client.rng.uniform_int(0, span));
  if (sim_.now() + think >= config_.stop) return;
  sim_.schedule_after(think, [this, &client] { issue(client); });
}

void QueryFleet::issue(Client& client) {
  ++issued_;
  auto done = [this, &client](query::QueryResult r) { complete(client, r); };
  const QueryMix& mix = config_.mix;
  if (client.rng.uniform_int(1, 3) == 1) {
    client.client->health(done);
    return;
  }
  query::WindowRequest request;
  request.group = mix.groups[client.rng.uniform_int(0, mix.groups.size() - 1)];
  request.begin =
      -mix.windows[client.rng.uniform_int(0, mix.windows.size() - 1)];
  client.client->window(request, done);
}

// --------------------------------------------------------------- Harness

Harness::Harness(const Options& options, Report& report)
    : options_(options), report_(report) {
  setup_span_ = spans_.begin("setup");
}

void Harness::setup_step(const std::string& name,
                         const std::function<void()>& fn) {
  const auto span = spans_.begin("setup." + name, setup_span_);
  const std::int64_t begin = host_ns();
  fn();
  const double ms = 1e-6 * static_cast<double>(host_ns() - begin);
  spans_.end(span);
  if (options_.traced) report_.metric("setup." + name + "_ms", ms, "ms");
}

void Harness::setup_done() {
  spans_.end(setup_span_);
  report_.metric("setup_s",
                 1e-9 * static_cast<double>(host_ns() - options_.start_ns),
                 "s");
}

void Harness::run(netqos::sim::Simulator& sim, SimTime end,
                  SimDuration slice,
                  const std::function<SliceCounters()>& sample) {
  const auto run_span = spans_.begin("run");
  SliceCounters before = options_.traced ? sample() : SliceCounters{};
  const std::int64_t cpu0 = cpu_ns();
  const std::int64_t wall0 = host_ns();
  for (SimTime t = sim.now(); t < end;) {
    t = std::min(end, t + slice);
    if (!options_.traced) {
      sim.run_until(t);
      continue;
    }
    const auto span = spans_.begin("run_until", run_span);
    sim.run_until(t);
    const SliceCounters after = sample();
    queue_depth_max_ = std::max(queue_depth_max_, sim.pending());
    spans_.end(span,
               {{"sim_end_s", netqos::to_seconds(t)},
                {"events", static_cast<double>(after.events - before.events)},
                {"frames", static_cast<double>(after.frames - before.frames)},
                {"polls", static_cast<double>(after.polls - before.polls)},
                {"queries",
                 static_cast<double>(after.queries - before.queries)},
                {"queue_depth", static_cast<double>(sim.pending())}});
    before = after;
  }
  run_wall_s_ = 1e-9 * static_cast<double>(host_ns() - wall0);
  run_cpu_s_ = 1e-9 * static_cast<double>(cpu_ns() - cpu0);
  rss_mb_ = peak_rss_mb();
  spans_.end(run_span);
}

void Harness::report_run(SimTime simulated, std::uint64_t completed_polls,
                         std::uint64_t events) {
  report_.metric("wall_per_sim_s", run_wall_s_ / netqos::to_seconds(simulated),
                 "s/s");
  report_.metric("polls_per_cpu_s",
                 static_cast<double>(completed_polls) / run_cpu_s_,
                 "polls/s");
  report_.metric("peak_rss_mb", rss_mb_, "MB");
  report_.count("sim_events", events);
  report_.count("simulated_ns", static_cast<std::uint64_t>(simulated));
  report_.count("completed_polls", completed_polls);
  report_.count("run_wall_ns",
                static_cast<std::uint64_t>(run_wall_s_ * 1e9));
  if (options_.traced) {
    report_.metric("netsim.queue_depth_max",
                   static_cast<double>(queue_depth_max_), "events");
  }
}

void Harness::write_spans() const {
  if (!options_.traced || options_.trace_out.empty()) return;
  std::ofstream out(options_.trace_out);
  spans_.write_jsonl(out);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + options_.trace_out);
  }
}

}  // namespace perfbench
