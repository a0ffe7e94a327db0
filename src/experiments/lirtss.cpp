#include "experiments/lirtss.h"

#include <stdexcept>

namespace netqos::exp {

// Out of line so callers that take the defaults do not inline the
// TestbedOptions{} construction (GCC 12 then reports a false
// -Wmaybe-uninitialized on `retention` in every such caller).
LirtssTestbed::LirtssTestbed() : LirtssTestbed(TestbedOptions{}) {}

LirtssTestbed::LirtssTestbed(TestbedOptions options)
    : specfile_(options.spec_text.empty()
                    ? spec::lirtss_testbed()
                    : spec::parse_spec(options.spec_text)) {
  network_ = sim::build_network(simulator_, specfile_.topology);

  snmp::DeployOptions deploy;
  deploy.iftable.cached = options.agent_cache;
  deploy.iftable.refresh_jitter = options.agent_refresh_jitter;
  // Agents notify the monitoring station of carrier transitions.
  deploy.trap_sink = sim::Ipv4Address::parse("10.0.0.1");
  agents_ = snmp::deploy_agents(simulator_, *network_, specfile_.topology,
                                deploy);

  std::vector<sim::Host*> hosts;
  for (const auto& node : specfile_.topology.nodes()) {
    if (auto* h = network_->find_host(node.name)) {
      hosts.push_back(h);
      discards_.push_back(std::make_unique<sim::DiscardService>(*h));
    }
  }

  sim::BackgroundConfig bg;
  bg.mean_rate = options.background_rate;
  bg.seed = options.background_seed;
  background_ =
      std::make_unique<sim::BackgroundTraffic>(simulator_, hosts, bg);

  if (options.metrics != nullptr) {
    simulator_.attach_metrics(*options.metrics);
    network_->attach_metrics(*options.metrics);
  }

  mon::MonitorConfig mc;
  mc.poll_interval = options.poll_interval;
  mc.retention = options.retention;
  mc.metrics = options.metrics;
  mc.spans = options.spans;
  monitor_ = std::make_unique<mon::NetworkMonitor>(
      simulator_, specfile_.topology, host(options.monitor_host), mc);
}

sim::Host& LirtssTestbed::host(const std::string& name) {
  sim::Host* h = network_->find_host(name);
  if (h == nullptr) {
    throw std::out_of_range("no such host: " + name);
  }
  return *h;
}

load::LoadGenerator& LirtssTestbed::add_load(const std::string& from,
                                             const std::string& to,
                                             load::RateProfile profile) {
  generators_.push_back(std::make_unique<load::LoadGenerator>(
      simulator_, host(from), host(to).ip(), std::move(profile)));
  generators_.back()->start();
  return *generators_.back();
}

LirtssTestbed& LirtssTestbed::watch(const std::string& from,
                                    const std::string& to) {
  monitor_->add_path(from, to);
  return *this;
}

void LirtssTestbed::run_until(SimTime until) {
  if (!started_) {
    started_ = true;
    background_->start();
    monitor_->start();
  }
  simulator_.run_until(until);
}

}  // namespace netqos::exp
