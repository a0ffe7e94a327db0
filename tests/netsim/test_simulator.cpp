#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "netsim/packet.h"
#include "netsim/udp.h"

namespace netqos::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(seconds(1), [&, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtLimitInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.schedule_at(seconds(3), [&] { ++fired; });
  sim.run_until(seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), seconds(2));
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), seconds(5));  // clock advances to the limit
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(seconds(5), [&] {
    sim.schedule_after(seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, seconds(7));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(seconds(5), [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(seconds(1), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(milliseconds(1), chain);
  };
  sim.schedule_at(0, chain);
  sim.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), milliseconds(99));
}

TEST(Simulator, RunUntilLeavesFutureEventsPending) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(10), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ExecutedCountTracks) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(seconds(i + 1), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, StaleIdOfReusedSlotCancelsNothing) {
  Simulator sim;
  const EventId cancelled = sim.schedule_at(seconds(1), [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  bool ran = false;
  const EventId reused = sim.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  sim.run_all();
  EXPECT_TRUE(ran);

  // Same after the event ran rather than being cancelled.
  const EventId executed = sim.schedule_at(seconds(2), [] {});
  sim.run_all();
  ran = false;
  sim.schedule_at(seconds(3), [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(executed));
  sim.run_all();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelZeroReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  sim.schedule_at(seconds(1), [] {});
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CallbackCancellingItselfGetsFalse) {
  Simulator sim;
  EventId self = 0;
  bool result = true;
  self = sim.schedule_at(seconds(1), [&] { result = sim.cancel(self); });
  sim.run_all();
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, MoveOnlyCaptureRuns) {
  Simulator sim;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  sim.schedule_at(seconds(1), [&seen, value = std::move(value)] {
    seen = *value;
  });
  sim.run_all();
  EXPECT_EQ(seen, 42);
}

/// Counts live instances, and destructions of the instance that was
/// never moved from (the one that owns the capture at the end).
struct InstrumentedCapture {
  int* live;
  int* final_destructions;
  bool moved_from = false;

  InstrumentedCapture(int* live_count, int* destructions)
      : live(live_count), final_destructions(destructions) {
    ++*live;
  }
  InstrumentedCapture(const InstrumentedCapture& o)
      : live(o.live), final_destructions(o.final_destructions) {
    ++*live;
  }
  InstrumentedCapture(InstrumentedCapture&& o) noexcept
      : live(o.live), final_destructions(o.final_destructions) {
    o.moved_from = true;
    ++*live;
  }
  InstrumentedCapture& operator=(const InstrumentedCapture&) = delete;
  ~InstrumentedCapture() {
    --*live;
    if (!moved_from) ++*final_destructions;
  }
};

TEST(Simulator, CaptureLargerThanInlineBufferRunsAndIsDestroyedOnce) {
  int live = 0;
  int destructions = 0;
  int runs = 0;
  {
    Simulator sim;
    std::array<std::uint64_t, 8> padding{};
    padding[7] = 7;
    auto big = [&runs, padding, probe = InstrumentedCapture(&live,
                                                           &destructions)] {
      runs += static_cast<int>(padding[7]);
    };
    static_assert(sizeof(big) > EventCallback::kInlineBytes);
    static_assert(!EventCallback::kStoredInline<decltype(big)>);
    sim.schedule_at(seconds(1), std::move(big));
    // Grow the slot table so the stored callable is relocated.
    for (int i = 0; i < 100; ++i) sim.schedule_at(seconds(2), [] {});
    sim.run_until(seconds(1));
    EXPECT_EQ(runs, 7);
    EXPECT_EQ(destructions, 1);
    EXPECT_EQ(live, 1);  // only `big` itself, moved from, remains
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(destructions, 1);
}

TEST(Simulator, PerHopFrameCapturesAreStoredInline) {
  // The capture shapes of Nic::start_transmission (NIC, frame, octets)
  // and Link::carry (peer NIC, frame).
  struct Transmit {
    void* nic;
    Frame frame;
    std::size_t octets;
    void operator()() {}
  };
  struct Carry {
    void* to;
    Frame frame;
    void operator()() {}
  };
  static_assert(EventCallback::kStoredInline<Transmit>);
  static_assert(EventCallback::kStoredInline<Carry>);
}

TEST(Simulator, LoopbackDatagramCaptureIsStoredInline) {
  // The capture shape of UdpStack::send's loopback event (stack, payload,
  // padding, source and destination port).
  struct Loopback {
    void* stack;
    Bytes payload;
    std::size_t padding;
    std::uint16_t src_port;
    std::uint16_t dst_port;
    void operator()() {}
  };
  static_assert(EventCallback::kStoredInline<Loopback>);
}

class NoArp : public ArpResolver {
 public:
  std::optional<MacAddress> resolve(Ipv4Address /*ip*/) const override {
    return std::nullopt;
  }
};

TEST(Simulator, LoopbackDatagramArrivesAfterTenMicrosecondsWithPayload) {
  Simulator sim;
  NoArp arp;
  const Ipv4Address ip = Ipv4Address::parse("10.0.0.7");
  int wire_frames = 0;
  UdpStack stack(sim, ip, MacAddress::from_id(7), arp, [&](Frame) {
    ++wire_frames;
    return true;
  });
  std::vector<SimTime> arrivals;
  std::vector<Ipv4Packet> packets;
  ASSERT_TRUE(stack.bind(161, [&](const Ipv4Packet& packet) {
    arrivals.push_back(sim.now());
    packets.push_back(packet);
  }));

  sim.schedule_at(seconds(1), [&] {
    Bytes first = sim.buffer_pool().acquire();
    first.assign({1, 2, 3});
    ASSERT_TRUE(stack.send(ip, 161, 50000, std::move(first), 40));
    Bytes second = sim.buffer_pool().acquire();
    second.assign({9});
    ASSERT_TRUE(stack.send(ip, 161, 50001, std::move(second)));
    Bytes unbound = sim.buffer_pool().acquire();
    unbound.assign({5, 5});
    ASSERT_TRUE(stack.send(ip, 162, 50002, std::move(unbound)));
  });
  sim.run_all();

  EXPECT_EQ(wire_frames, 0);
  ASSERT_EQ(packets.size(), 2u);
  for (const SimTime t : arrivals) {
    EXPECT_EQ(t, seconds(1) + 10 * kMicrosecond);
  }
  // Send order is delivery order.
  EXPECT_EQ(packets[0].src, ip);
  EXPECT_EQ(packets[0].dst, ip);
  EXPECT_EQ(packets[0].udp.src_port, 50000);
  EXPECT_EQ(packets[0].udp.dst_port, 161);
  EXPECT_EQ(packets[0].udp.payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(packets[0].udp.padding, 40u);
  EXPECT_EQ(packets[1].udp.src_port, 50001);
  EXPECT_EQ(packets[1].udp.payload, (Bytes{9}));
  EXPECT_EQ(packets[1].udp.padding, 0u);
  EXPECT_EQ(stack.stats().datagrams_sent, 3u);
  EXPECT_EQ(stack.stats().datagrams_received, 2u);
  EXPECT_EQ(stack.stats().no_handler_drops, 1u);
  // Every loopback payload went back to the pool, delivered or dropped.
  EXPECT_EQ(sim.buffer_pool().stats().acquires, 3u);
  EXPECT_EQ(sim.buffer_pool().stats().releases, 3u);
}

TEST(Simulator, QueuedFramesReleasePooledPayloadsAtTeardown) {
  BufferPool::Stats at_last_release;
  /// Drops its frame, then snapshots the pool: whichever capture is
  /// destroyed last records the stats after every frame is gone.
  struct FrameHolder {
    Frame frame;
    BufferPool* pool;
    BufferPool::Stats* out;
    FrameHolder(Frame f, BufferPool* p, BufferPool::Stats* o)
        : frame(std::move(f)), pool(p), out(o) {}
    FrameHolder(FrameHolder&& o) noexcept = default;
    FrameHolder& operator=(FrameHolder&&) = delete;
    ~FrameHolder() {
      if (out == nullptr || frame == nullptr) return;
      frame.reset();
      *out = pool->stats();
    }
  };
  {
    Simulator sim;
    BufferPool& pool = sim.buffer_pool();
    for (int i = 0; i < 8; ++i) {
      EthernetFrame raw;
      raw.ip.udp.payload = pool.acquire();
      raw.ip.udp.payload.assign(100, static_cast<std::uint8_t>(i));
      FrameHolder holder(make_pooled_frame(std::move(raw), &pool), &pool,
                         &at_last_release);
      sim.schedule_at(seconds(i + 1),
                      [holder = std::move(holder)] { (void)holder; });
    }
    sim.run_until(seconds(3));  // three delivered, five still queued
    EXPECT_EQ(pool.stats().releases, 3u);
  }
  EXPECT_EQ(at_last_release.acquires, 8u);
  EXPECT_EQ(at_last_release.releases, 8u);
}

TEST(Simulator, SameTimeOrderHoldsAcrossSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(sim.schedule_at(seconds(1), [&, i] { order.push_back(i); }));
  }
  // Free slots 1 and 3, then refill them: the newcomers reuse lower
  // slots but must still run after every earlier same-time event.
  ASSERT_TRUE(sim.cancel(ids[1]));
  ASSERT_TRUE(sim.cancel(ids[3]));
  sim.schedule_at(seconds(1), [&] { order.push_back(6); });
  sim.schedule_at(seconds(1), [&] { order.push_back(7); });
  // Each event at t=1 schedules a follow-up at t=2 into a slot freed
  // moments before; the follow-ups keep their scheduling order.
  sim.schedule_at(seconds(1), [&] {
    for (int i = 10; i < 14; ++i) {
      sim.schedule_at(seconds(2), [&, i] { order.push_back(i); });
    }
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 5, 6, 7, 10, 11, 12, 13}));
}

}  // namespace
}  // namespace netqos::sim
