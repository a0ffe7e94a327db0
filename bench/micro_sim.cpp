// Microbenchmarks: discrete-event core and end-to-end simulated traffic
// rates (events/sec, simulated-bytes/sec of wall time).
#include <benchmark/benchmark.h>

#include "loadgen/generator.h"
#include "netsim/network.h"
#include "netsim/services.h"
#include "netsim/simulator.h"

using namespace netqos;
using namespace netqos::sim;

namespace {

void BM_EventScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_EventCascade(benchmark::State& state) {
  // Self-scheduling chain: the monitor/loadgen pattern.
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < n) sim.schedule_after(1000, chain);
    };
    sim.schedule_at(0, chain);
    sim.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventCascade)->Arg(10'000);

void BM_EventFrameHop(benchmark::State& state) {
  // The per-hop shape of Nic::start_transmission: each event captures a
  // shared frame plus 8 bytes of hop state (and a pointer to its sink).
  const Frame frame = make_frame(EthernetFrame{});
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    std::size_t octets_out = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(i, [&octets_out, frame, octets = frame->wire_size()] {
        octets_out += octets;
      });
    }
    sim.run_all();
    benchmark::DoNotOptimize(octets_out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventFrameHop)->Arg(1'000)->Arg(100'000);

void BM_UdpAcrossSwitch(benchmark::State& state) {
  // Simulated seconds of a 1 MB/s stream across a switch, per wall-second.
  Simulator sim;
  Network net(sim);
  Switch& sw = net.add_switch("sw");
  net.add_port(sw, "p1", mbps(100));
  net.add_port(sw, "p2", mbps(100));
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.add_host_interface(a, "eth0", mbps(100), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(100), Ipv4Address::parse("10.0.0.2"));
  net.connect(a, "eth0", sw, "p1");
  net.connect(b, "eth0", sw, "p2");
  DiscardService discard(b);
  load::RateProfile profile;
  profile.add_step(0, 1'000'000.0);
  load::LoadGenerator gen(sim, a, b.ip(), profile);
  gen.start();

  SimTime horizon = 0;
  std::uint64_t datagrams = 0;
  for (auto _ : state) {
    horizon += seconds(1);
    sim.run_until(horizon);
    datagrams = gen.datagrams_sent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(datagrams));
  state.SetLabel("simulated seconds == iterations");
}
BENCHMARK(BM_UdpAcrossSwitch);

void BM_HubBroadcastOverhead(benchmark::State& state) {
  // Same stream but through an N-port hub: every frame is repeated to
  // every port, so event cost grows with port count.
  const int ports = static_cast<int>(state.range(0));
  Simulator sim;
  Network net(sim);
  Hub& hub = net.add_hub("hub");
  for (int i = 0; i < ports; ++i) {
    net.add_port(hub, "h" + std::to_string(i), mbps(10));
  }
  std::vector<Host*> hosts;
  for (int i = 0; i < ports; ++i) {
    Host& h = net.add_host("host" + std::to_string(i));
    net.add_host_interface(
        h, "eth0", mbps(10),
        Ipv4Address::parse("10.0.1." + std::to_string(i + 1)));
    net.connect(h, "eth0", hub, "h" + std::to_string(i));
    hosts.push_back(&h);
  }
  DiscardService discard(*hosts[1]);
  load::RateProfile profile;
  profile.add_step(0, 200'000.0);
  load::LoadGenerator gen(sim, *hosts[0], hosts[1]->ip(), profile);
  gen.start();

  SimTime horizon = 0;
  for (auto _ : state) {
    horizon += seconds(1);
    sim.run_until(horizon);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_HubBroadcastOverhead)->Arg(3)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
