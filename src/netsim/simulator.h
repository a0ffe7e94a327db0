// Discrete-event simulation core.
//
// A single-threaded event loop over a binary heap keyed by
// (time, sequence). The sequence number makes same-time events fire in
// scheduling order, which keeps every run deterministic.
//
// Callbacks live in a slot table beside the heap: a vector of
// {callable, generation} entries recycled through a free list. A heap
// entry names its slot and the generation it was scheduled under, and
// an EventId packs the same pair, so cancel() is O(1) and a stale id (an
// event that ran, was cancelled, or whose slot was reused) matches
// nothing. Callables are move-only with inline storage for captures up
// to EventCallback::kInlineBytes, so the per-hop frame lambdas schedule
// without touching the heap allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/sim_time.h"
#include "obs/metrics.h"

namespace netqos::sim {

/// Handle for cancelling a scheduled event: the slot index in the low
/// 32 bits and the slot's generation in the high 32. Never 0.
using EventId = std::uint64_t;

/// Move-only `void()` callable. Captures of up to kInlineBytes that move
/// without throwing are stored inline; anything else goes to the heap.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventCallback> &&
             std::is_invocable_v<std::decay_t<F>&>)
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Throws std::bad_function_call when empty, like std::function.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `to`, then destroys `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* from, void* to) noexcept {
        Fn* source = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*source));
        source->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); }};

  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using Callback = EventCallback;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now). Returns an id
  /// usable with cancel().
  EventId schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` to run `delay` after now.
  EventId schedule_after(SimDuration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was
  /// cancelled, or `id` is stale or 0. O(1): the callback is destroyed
  /// now and its heap entry skipped when popped.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or the time limit is passed.
  /// Events scheduled exactly at `until` DO run; the clock never exceeds
  /// `until`.
  void run_until(SimTime until);

  /// Runs until the queue drains completely.
  void run_all();

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Number of events currently pending (including tombstoned ones).
  std::size_t pending() const { return queue_.size(); }

  /// Exports the event loop's health through `registry` with a pull-style
  /// collector (no per-event cost): events dispatched, current queue
  /// depth, and the virtual clock. The registry must outlive this
  /// simulator or be detached by destroying the simulator first — the
  /// collector holds a reference to this object.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Shared recycler for packet payload buffers. Everything that encodes
  /// into or frees a UDP payload on this simulator draws from here.
  BufferPool& buffer_pool() { return buffer_pool_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    // Ordered as a min-heap via std::greater.
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// A slot's generation is odd while it holds a pending event and even
  /// while it is free; both scheduling and release advance it.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
  };

  /// Pops the top event and runs it unless it was cancelled.
  void dispatch_top();
  /// Returns `slot` to the free list, invalidating its pending id.
  void release(std::uint32_t slot);

  // First member: destroyed last, so frame deleters inside still-queued
  // callbacks can release their payloads during teardown.
  BufferPool buffer_pool_;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace netqos::sim
