#include "netsim/simulator.h"

#include <stdexcept>

namespace netqos::sim {

EventId Simulator::schedule_at(SimTime when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("cannot schedule event in the past");
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& entry = slots_[slot];
  entry.fn = std::move(fn);
  const std::uint32_t generation = ++entry.generation;
  queue_.push(Event{when, next_seq_++, slot, generation});
  return static_cast<EventId>(generation) << 32 | slot;
}

void Simulator::release(std::uint32_t slot) {
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || (generation & 1U) == 0 ||
      slots_[slot].generation != generation) {
    return false;
  }
  // Move the callable out first: its destructor may run arbitrary code
  // (frame deleters), and the slot must already be free when it does.
  Callback dropped = std::move(slots_[slot].fn);
  release(slot);
  return true;
}

void Simulator::attach_metrics(obs::MetricsRegistry& registry) {
  // Pull-style: nothing touches the event loop's hot path. The counters
  // are snapshotted from the simulator's own tallies at render time.
  obs::Counter& events = registry.counter(
      "netqos_sim_events_total", "Discrete events dispatched by the simulator");
  obs::Gauge& depth = registry.gauge(
      "netqos_sim_queue_depth",
      "Pending events in the scheduler queue (including tombstones)");
  obs::Gauge& clock = registry.gauge("netqos_sim_time_seconds",
                                     "Current virtual time of the simulation");
  registry.add_collector([this, &events, &depth, &clock] {
    events.set_total(executed_);
    depth.set(static_cast<double>(queue_.size()));
    clock.set(to_seconds(now_));
  });
}

void Simulator::dispatch_top() {
  const Event ev = queue_.top();
  queue_.pop();
  Slot& entry = slots_[ev.slot];
  if (entry.generation != ev.generation) return;  // cancelled
  // Moved out before running: the callback may schedule events that
  // grow slots_, and cancel() on its own id must already see it gone.
  Callback fn = std::move(entry.fn);
  release(ev.slot);
  now_ = ev.when;
  ++executed_;
  fn();
}

void Simulator::run_until(SimTime until) {
  while (!queue_.empty() && queue_.top().when <= until) dispatch_top();
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (!queue_.empty()) dispatch_top();
}

}  // namespace netqos::sim
