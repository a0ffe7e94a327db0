// Shared machinery of the benchmark workloads: host clocks, the per-run
// report, host-time spans, the output digest, benchmark-owned observer
// modules and the simulated query-client fleet.
//
// Everything here drives the library through its public headers only.
// Observers are passive: they read samples and clocks and never emit
// into the monitor, so attaching them cannot change simulated results
// (the digest comparison between timed and traced runs checks that).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "monitor/module.h"
#include "netsim/host.h"
#include "netsim/simulator.h"
#include "query/client.h"
#include "query/proto.h"

namespace perfbench {

using netqos::SimDuration;
using netqos::SimTime;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// CLOCK_MONOTONIC nanoseconds at entry to main; setup_s counts
  /// from here.
  std::int64_t start_ns = 0;
  /// Where a traced run writes its host-time spans (JSONL).
  std::string trace_out;
};

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t host_ns();
/// CPU nanoseconds consumed by this process (user + system).
std::int64_t cpu_ns();
/// VmHWM of this process in MB (10^6 bytes).
double peak_rss_mb();

/// Nearest-rank quantile (q in [0, 1]) of unsorted values; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Measured results of one workload process, printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Sample counts and other integers shown beside the metrics.
  void count(const std::string& name, std::uint64_t value);
  /// A failed check marks the whole run failed.
  void check(const std::string& name, bool ok, const std::string& detail);
  void set_digest(std::uint64_t digest) { digest_ = digest; }
  bool ok() const;
  void write_json(std::ostream& out) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  struct Check {
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, Check> checks_;
  std::uint64_t digest_ = 0;
};

/// Host-time spans recorded by the benchmark around calls into each
/// layer. Kept in memory and written once, after the run.
class HostSpans {
 public:
  using Id = std::size_t;
  Id begin(std::string name, std::optional<Id> parent = std::nullopt);
  void end(Id id, std::map<std::string, double> args = {});
  /// Chrome trace-event JSONL ("X" events, microseconds).
  void write_jsonl(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    std::optional<Id> parent;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::map<std::string, double> args;
  };
  std::vector<Span> spans_;
};

/// FNV-1a over "%.17g" renderings: equal digests mean bit-identical
/// simulated outputs.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  void add(std::string_view text);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Records every poll round's simulated duration (round start to the
/// module wrap-up, which runs when the last poll of the round lands).
/// Register one per poller shard.
class RoundRecorder final : public netqos::mon::Module {
 public:
  RoundRecorder(netqos::sim::Simulator& sim, std::vector<double>& rounds_ms)
      : Module("perfbench.rounds"), sim_(sim), rounds_ms_(rounds_ms) {}
  void on_round_end(SimTime round_start) override;

 private:
  netqos::sim::Simulator& sim_;
  std::vector<double>& rounds_ms_;
};

/// One watched path's full sample stream (the monitor's own history is
/// bounded by its retention policy; this keeps the whole run).
struct PathTrace {
  std::vector<SimTime> time;
  std::vector<double> used;
  std::vector<double> available;
};

/// Captures every delivered path sample, keyed by the watched pair.
class PathRecorder final : public netqos::mon::Module {
 public:
  PathRecorder() : Module("perfbench.paths") {}
  void on_path_sample(const netqos::mon::PathKey& key, SimTime time,
                      const netqos::mon::PathUsage& usage) override;
  const PathTrace& trace(const netqos::mon::PathKey& key) const;
  std::uint64_t samples() const { return samples_; }

 private:
  std::map<netqos::mon::PathKey, PathTrace> traces_;
  std::uint64_t samples_ = 0;
};

/// Host-time cost of one round's module dispatch, measured by a pair of
/// pass-through modules registered first and last (traced runs only).
/// The interval runs from the first delivery the opening module sees in
/// a round (a path sample, or else its produce hook) to the closing
/// module's round wrap-up.
struct DispatchTiming {
  std::vector<double> round_us;
  std::int64_t opened_ns = 0;
  bool open = false;
};

class DispatchOpen final : public netqos::mon::Module {
 public:
  explicit DispatchOpen(DispatchTiming& timing)
      : Module("perfbench.dispatch_open"), timing_(timing) {}
  void on_path_sample(const netqos::mon::PathKey&, SimTime,
                      const netqos::mon::PathUsage&) override;
  void produce(netqos::mon::ModuleCore&, SimTime) override;

 private:
  void open();
  DispatchTiming& timing_;
};

class DispatchClose final : public netqos::mon::Module {
 public:
  explicit DispatchClose(DispatchTiming& timing)
      : Module("perfbench.dispatch_close"), timing_(timing) {}
  void on_round_end(SimTime) override;

 private:
  DispatchTiming& timing_;
};

/// What the simulated clients ask for. One request in three is a health
/// snapshot; the others are trailing windows drawn uniformly from
/// `windows`, grouped by a uniform draw from `groups`.
struct QueryMix {
  std::vector<SimDuration> windows;
  std::vector<netqos::query::GroupBy> groups;
};

struct FleetConfig {
  std::size_t clients = 0;
  QueryMix mix;
  SimDuration think_min = 0;
  SimDuration think_max = 0;
  /// Clients start 10 s into the run and issue nothing after `stop`.
  SimTime stop = 0;
  std::uint64_t seed = 0;
};

/// Closed-loop simulated query clients: each subscribes to the event
/// stream, then issues its next request only after the previous one
/// completes plus a seeded think time. Clients live on simulated hosts;
/// every frame crosses the simulated network.
class QueryFleet {
 public:
  QueryFleet(netqos::sim::Simulator& sim,
             const std::vector<netqos::sim::Host*>& homes,
             netqos::sim::Ipv4Address server, FleetConfig config);
  QueryFleet(const QueryFleet&) = delete;
  QueryFleet& operator=(const QueryFleet&) = delete;

  std::uint64_t issued() const { return issued_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t errors() const { return errors_; }
  /// Client-observed RTTs of successful queries, simulated ms.
  const std::vector<double>& rtt_ms() const { return rtt_ms_; }

 private:
  struct Client {
    std::unique_ptr<netqos::query::QueryClient> client;
    netqos::Xoshiro256 rng{0};
  };
  void issue(Client& client);
  void complete(Client& client, const netqos::query::QueryResult& result);

  netqos::sim::Simulator& sim_;
  FleetConfig config_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t issued_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t errors_ = 0;
  std::vector<double> rtt_ms_;
};

/// Counts observed at one slice boundary of the run phase.
struct SliceCounters {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t polls = 0;
  std::uint64_t queries = 0;
};

/// Times set-up steps and the run phase, and turns them into the host
/// end-to-end metrics.
class Harness {
 public:
  Harness(const Options& options, Report& report);

  bool traced() const { return options_.traced; }
  HostSpans& spans() { return spans_; }

  /// Runs one set-up step; traced runs record `setup.<name>_ms` and a
  /// span under the set-up span.
  void setup_step(const std::string& name, const std::function<void()>& fn);

  /// Ends set-up: reports setup_s (main entry to the first simulated
  /// event).
  void setup_done();

  /// Runs the simulation to `end` in slices of `slice`. Traced runs
  /// record one span per slice with the counter deltas `sample` reads.
  void run(netqos::sim::Simulator& sim, SimTime end, SimDuration slice,
           const std::function<SliceCounters()>& sample);

  /// Reports wall_per_sim_s, polls_per_cpu_s and peak_rss_mb for the run
  /// phase, and the queue-depth layer metric.
  void report_run(SimTime simulated, std::uint64_t completed_polls,
                  std::uint64_t events);

  /// Writes the spans of a traced run to options.trace_out.
  void write_spans() const;

 private:
  const Options& options_;
  Report& report_;
  HostSpans spans_;
  HostSpans::Id setup_span_ = 0;
  double run_wall_s_ = 0;
  double run_cpu_s_ = 0;
  double rss_mb_ = 0;
  std::size_t queue_depth_max_ = 0;
};

}  // namespace perfbench
