// Discrete-event scheduler.
//
// Two-level queue: a FIFO "delta ring" holds events at the current
// timestamp (the dominant case -- zero-delay gate writes and delta cycles),
// and a 4-ary min-heap of (time, sequence) keys holds future events. When
// the ring drains, the earliest heap timestamp is promoted: every heap event
// at that time moves into the ring in scheduling order before any of them
// runs, so same-timestamp events always execute in scheduling order
// regardless of which level they entered through. This gives the kernel
// deterministic delta-cycle semantics: a zero-delay write scheduled while
// processing time T runs later within T, never "before" already-pending
// work.
//
// The future heap sifts only trivially copyable 24-byte keys
// {time, seq, slot}. Each future event's callback and profiler site live in
// a slot of a pool that is carved from fixed-size chunks, so a slot never
// moves: the callback is built in place there when it is scheduled, runs in
// place, and moves only if it is promoted into the ring. A slot is freed
// once its callback returns, so children scheduled while it runs take other
// slots. Free slots are chained through a link stored in the slot itself.
// (time, seq) is a total order, so the heap's shape never affects which
// event runs next.
//
// Callbacks are small-buffer-optimized (sim/callback.hpp) and the ring, the
// key heap and the slot pool all recycle their storage, so the steady-state
// hot loop performs zero heap allocations per event.
//
// A per-timestamp event budget guards against combinational oscillation
// (e.g. an inverter loop with zero delay): exceeding it raises
// SimulationError instead of hanging the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/error.hpp"
#include "sim/kernel_stats.hpp"
#include "sim/profiler.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace mts::sim {

class Watchdog;

class Scheduler {
 public:
  using Callback = InplaceFunction<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `f` at absolute time `t`; `t` must not be in the past.
  /// Takes any void() callable and type-erases it directly into queue
  /// storage -- no intermediate Callback move on the scheduling fast path.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void at(Time t, F&& f) {
    // Profiler site inheritance: events adopt the site of the event that
    // schedules them (see sim/profiler.hpp). One branch when dormant.
    at_site(t, profiler_ == nullptr ? 0u : profiler_->current(),
            std::forward<F>(f));
  }

  /// at() with an explicit profiler site -- used by root event sources
  /// (clocks, asynchronous drivers) that are not themselves scheduled from
  /// inside a profiled event. The site is ignored while no profiler is
  /// armed.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void at_site(Time t, KernelProfiler::SiteId site, F&& f) {
    if (t < now_) past_event(t);
    if (t == now_) {
      // Same-timestamp events always have a later sequence number than
      // anything still in the heap at this time (those were promoted into
      // the ring before execution started), so FIFO order is scheduling
      // order.
      ring_.push_back(RingEvent{Callback(std::forward<F>(f)), site});
    } else {
      // Storage grows first and a failed build leaves the slot empty, so
      // whatever throws leaves the queue unchanged.
      Slot* s = free_slot_;
      if (s == nullptr) s = grow_pool();
      if (heap_.data() + heap_size_ == std::to_address(heap_.end())) {
        grow_heap();
      }
      s->cb.emplace(std::forward<F>(f));
      s->site = site;
      free_slot_ = s->next_free;
      const Key key{t, next_seq_++, s};
      // A singleton heap is already a heap (the self-rescheduling chain).
      if (heap_size_++ == 0) {
        heap_[0] = key;
      } else {
        sift_up(key);
      }
    }
    note_push();
  }

  /// Schedules `f` at now() + delay.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }

  bool empty() const noexcept { return ring_.empty() && heap_size_ == 0; }
  std::size_t pending() const noexcept { return ring_.size() + heap_size_; }

  /// Runs the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Runs every event with timestamp <= t; now() == t afterwards even if
  /// the queue drained early.
  void run_until(Time t);

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = kDefaultRunBudget);

  /// Upper bound on events executed at a single timestamp before the kernel
  /// declares a combinational oscillation.
  void set_timestamp_budget(std::size_t budget) { timestamp_budget_ = budget; }

  /// Returns the scheduler to its just-constructed state -- time 0, empty
  /// queues, zeroed health counters -- while KEEPING the delta ring's, key
  /// heap's and slot pool's grown storage, so the next run is
  /// allocation-free from its first event. Pending callbacks are destroyed.
  /// The armed profiler (if any) is kept; the timestamp budget is kept. This
  /// is the campaign engine's per-run arena-reuse hook (sim/campaign.hpp).
  void reset();

  /// Arms (nullptr: disarms) wall-time profiling of event dispatch. The
  /// profiler must outlive the scheduler or be disarmed first.
  void set_profiler(KernelProfiler* p) noexcept { profiler_ = p; }
  KernelProfiler* profiler() const noexcept { return profiler_; }

  /// Arms (nullptr: disarms) a run watchdog (sim/watchdog.hpp): the run
  /// loops call Watchdog::tick once per executed event. One pointer branch
  /// per event when disarmed, same cost shape as the profiler.
  void set_watchdog(Watchdog* w) noexcept { watchdog_ = w; }
  Watchdog* watchdog() const noexcept { return watchdog_; }

  /// Events executed since construction/reset() -- the cheap single-counter
  /// read the telemetry sampler uses (stats() flushes the profiler).
  std::uint64_t events_executed() const noexcept {
    return stats_.events_executed;
  }

  /// Snapshot of the kernel health counters (plus the hottest-site table
  /// when a profiler is armed; pending profiler samples are flushed first).
  KernelStats stats() const {
    KernelStats s = stats_;
    s.pool_high_water = ring_.capacity() + heap_.capacity();
    if (profiler_ != nullptr) {
      profiler_->flush();
      s.hot_sites = profiler_->top();
    }
    return s;
  }

  /// Callback slots in the future-event pool: the most future events ever
  /// pending or running at once since construction (reset() keeps the
  /// slots).
  std::size_t pool_slots() const noexcept { return pool_slots_; }

  static constexpr std::size_t kDefaultRunBudget = 500'000'000;

 private:
  struct RingEvent {
    Callback cb;
    KernelProfiler::SiteId site = 0;
  };
  /// Pool cell of one future event, one cache line. `next_free` links the
  /// free slots and is meaningless while the slot is in use.
  struct alignas(64) Slot {
    Callback cb;
    KernelProfiler::SiteId site = 0;
    Slot* next_free = nullptr;
  };
  /// Future-heap entry. Trivially copyable: a sift step copies 24 bytes and
  /// never touches a callback.
  struct Key {
    Time t;
    std::uint64_t seq;
    Slot* slot;  ///< stable: pool chunks never move
  };
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kChunkSlots = 64;  ///< 4 KiB per chunk

  static bool earlier(const Key& a, const Key& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Places `k` by moving a hole up from heap_[heap_size_ - 1], the
  /// position just added at the end.
  void sift_up(const Key& k) noexcept {
    std::size_t i = heap_size_ - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Places `k` by moving a hole from the root down.
  void sift_down(Key k) noexcept;

  /// Removes and returns the earliest key. Precondition: heap non-empty.
  /// A singleton heap (the self-rescheduling chain) needs no sift.
  Key heap_pop() noexcept {
    const Key top = heap_[0];
    if (--heap_size_ > 0) sift_down(heap_[heap_size_]);
    return top;
  }

  /// Doubles the key storage (1, 2, 4, ... keys, as push_back would grow
  /// it). Precondition: every key slot is in use.
  void grow_heap();

  /// Carves one more slot from the pool (allocating a chunk when the last
  /// one is used up), makes it the free-list head and returns it.
  /// Precondition: the free list is empty.
  Slot* grow_pool();

  /// Returns slot `s`, whose callback is empty, to the free list.
  void release_slot(Slot* s) noexcept {
    s->next_free = free_slot_;
    free_slot_ = s;
  }

  /// Destroys the callback in slot `s` and frees the slot.
  void finish_slot(Slot* s) noexcept {
    s->cb.reset();
    release_slot(s);
  }

  /// Throws the AssertionError for an event scheduled before now(). Out of
  /// line, so the scheduling fast path carries no message-building code.
  [[noreturn]] void past_event(Time t) const;

  /// Pops and runs the front delta-ring event (which is at now()).
  void run_one_from_ring();

  /// Advances now() to the earliest heap timestamp and runs its first event
  /// directly; any sibling events at the same timestamp are first moved into
  /// the delta ring (in scheduling order) so they run before the executed
  /// event's zero-delay children. Precondition: ring empty, heap non-empty.
  void run_one_from_heap();

  /// Runs cb() under `site`'s ProfileScope and records a site sample
  /// (profiler armed only). Wall time is attributed by the profiler's
  /// block-sampled clock, not per-callback reads (see sim/profiler.hpp).
  void run_profiled(Callback& cb, KernelProfiler::SiteId site);

  void dispatch(RingEvent& ev) {
    if (profiler_ == nullptr) {
      ev.cb();
    } else {
      run_profiled(ev.cb, ev.site);
    }
  }

  void note_push() noexcept {
    const std::size_t depth = ring_.size() + heap_size_;
    if (depth > stats_.peak_queue_depth) stats_.peak_queue_depth = depth;
  }

  RingBuffer<RingEvent> ring_;  ///< events at now(), FIFO order
  /// Future events: heap_[0, heap_size_) is a 4-ary min-heap by earlier().
  /// heap_.size() is the grown key storage, never shrunk.
  std::vector<Key> heap_;
  std::size_t heap_size_ = 0;
  /// Slot storage for the keys in heap_ (and the running heap event).
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t pool_slots_ = 0;    ///< slots carved from chunks_ so far
  Slot* free_slot_ = nullptr;     ///< head of the free list
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_at_now_ = 0;
  std::size_t timestamp_budget_ = 4'000'000;
  KernelStats stats_;
  KernelProfiler* profiler_ = nullptr;
  Watchdog* watchdog_ = nullptr;
};

}  // namespace mts::sim
