// Reusable LIRTSS-testbed experiment fixture.
//
// Wires together everything §4.1 describes: the Figure 3 network built
// from the specification file, SNMP agents where declared, DISCARD
// services on every host, seeded background chatter, the network monitor
// on host L, and any number of UDP load generators. Benchmarks, examples,
// and integration tests all drive experiments through this fixture so the
// setup is identical everywhere.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "loadgen/generator.h"
#include "monitor/monitor.h"
#include "netsim/background.h"
#include "netsim/network.h"
#include "netsim/services.h"
#include "snmp/deploy.h"
#include "spec/testbed.h"

namespace netqos::exp {

struct TestbedOptions {
  /// Aggregate background payload rate across all host pairs. The default
  /// is tuned so the hub segment sees roughly the paper's ~10 KB/s
  /// ambient level.
  BytesPerSecond background_rate = 22'000.0;
  std::uint64_t background_seed = 0x1ea7f00d;
  /// Agent-side ifTable caching (false = serve live counters).
  bool agent_cache = true;
  /// Refresh-latency jitter of the agent cache (paper spike magnitude).
  SimDuration agent_refresh_jitter = 120 * kMillisecond;
  SimDuration poll_interval = 2 * kSecond;
  /// Retention policy for the monitor's history store (and its own
  /// StatsDb's per-interface store).
  hist::RetentionPolicy retention;
  /// Name of the host the monitor runs on (the paper uses L).
  std::string monitor_host = "L";
  /// Optional shared telemetry. When `metrics` is set, the simulator,
  /// every link, and the monitor export through it; when `spans` is set,
  /// poll rounds are traced. Both must outlive the testbed.
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanRecorder* spans = nullptr;
  /// Alternative network specification (spec-file text). Empty = the
  /// built-in §4.1 testbed. The shootout's hidden-cross scenario uses
  /// this to graft agentless hosts onto the hub segment.
  std::string spec_text;
};

class LirtssTestbed {
 public:
  LirtssTestbed();
  explicit LirtssTestbed(TestbedOptions options);

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return *network_; }
  const topo::NetworkTopology& topology() const {
    return specfile_.topology;
  }
  const spec::SpecFile& specfile() const { return specfile_; }
  mon::NetworkMonitor& monitor() { return *monitor_; }

  /// Host lookup; throws std::out_of_range on unknown names.
  sim::Host& host(const std::string& name);

  /// Adds (and starts) a UDP load from one host to another's DISCARD
  /// port, following the profile. Returns the generator for inspection.
  load::LoadGenerator& add_load(const std::string& from,
                                const std::string& to,
                                load::RateProfile profile);

  /// Registers a monitored path and returns *this for chaining.
  LirtssTestbed& watch(const std::string& from, const std::string& to);

  /// Starts monitor + background traffic (idempotent) and runs the
  /// simulation until the given absolute time.
  void run_until(SimTime until);

  std::vector<snmp::DeployedAgent>& agents() { return agents_; }
  sim::BackgroundTraffic& background() { return *background_; }

 private:
  spec::SpecFile specfile_;
  sim::Simulator simulator_;
  std::unique_ptr<sim::Network> network_;
  std::vector<snmp::DeployedAgent> agents_;
  std::vector<std::unique_ptr<sim::DiscardService>> discards_;
  std::unique_ptr<sim::BackgroundTraffic> background_;
  std::unique_ptr<mon::NetworkMonitor> monitor_;
  std::vector<std::unique_ptr<load::LoadGenerator>> generators_;
  bool started_ = false;
};

}  // namespace netqos::exp
