#include "sim/scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/watchdog.hpp"

namespace mts::sim {

void Scheduler::past_event(Time t) const {
  detail::assertion_failed("t >= now_", __FILE__, __LINE__,
                           "event scheduled in the past at t=" +
                               std::to_string(t) +
                               " now=" + std::to_string(now_));
}

void Scheduler::run_one_from_ring() {
  if (++events_at_now_ > timestamp_budget_) {
    throw SimulationError("combinational oscillation: more than " +
                          std::to_string(timestamp_budget_) +
                          " events at t=" + format_time(now_));
  }
  // Move the event out before invoking: it may schedule new events and
  // grow the ring while running.
  RingEvent ev = ring_.pop_front();
  ++stats_.events_executed;
  dispatch(ev);
}

void Scheduler::sift_down(Key k) noexcept {
  // Move the hole at the root down to k's place: at each level, the
  // earliest of up to kArity children fills the hole if it precedes k.
  const std::size_t n = heap_size_;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void Scheduler::grow_heap() {
  heap_.resize(heap_.empty() ? 1 : 2 * heap_.size());
}

Scheduler::Slot* Scheduler::grow_pool() {
  const std::size_t i = pool_slots_ % kChunkSlots;
  if (i == 0) chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  ++pool_slots_;
  free_slot_ = &chunks_.back()[i];
  return free_slot_;
}

void Scheduler::run_one_from_heap() {
  const Key top = heap_pop();
  now_ = top.t;
  events_at_now_ = 1;
  // Scheduling order: siblings at this timestamp (larger seq than top)
  // enter the delta ring before top runs, so its zero-delay children --
  // appended to the ring during execution -- land after them. The common
  // case (no sibling) skips the ring entirely.
  while (heap_size_ > 0 && heap_[0].t == top.t) {
    const Key sib = heap_pop();
    ring_.push_back(RingEvent{std::move(sib.slot->cb), sib.slot->site});
    release_slot(sib.slot);
  }
  // The callback runs in its slot: growing the pool never moves a slot, and
  // this one joins the free list only after the callback returns (or
  // throws), so the events it schedules take other slots.
  Slot* s = top.slot;
  ++stats_.events_executed;
  try {
    if (profiler_ == nullptr) {
      s->cb();
    } else {
      run_profiled(s->cb, s->site);
    }
  } catch (...) {
    finish_slot(s);
    throw;
  }
  finish_slot(s);
}

void Scheduler::run_profiled(Callback& cb, KernelProfiler::SiteId site) {
  // Sample first: the block's wall clock then covers this callback and the
  // dispatch work leading to the next one. While cb runs, `site` is the
  // current site, so events it schedules inherit its attribution (see
  // sim/profiler.hpp).
  profiler_->sample(site);
  ProfileScope scope(profiler_, site);
  cb();
}

bool Scheduler::step() {
  if (!ring_.empty()) {
    run_one_from_ring();
  } else if (heap_size_ > 0) {
    run_one_from_heap();
  } else {
    return false;
  }
  if (watchdog_ != nullptr) watchdog_->tick(now_);
  return true;
}

void Scheduler::run_until(Time t) {
  for (;;) {
    if (!ring_.empty()) {
      if (now_ > t) break;  // time already advanced past the horizon
      run_one_from_ring();
    } else if (heap_size_ > 0 && heap_[0].t <= t) {
      run_one_from_heap();
    } else {
      break;
    }
    if (watchdog_ != nullptr) watchdog_->tick(now_);
  }
  if (now_ < t) {
    now_ = t;
    events_at_now_ = 0;
  }
  // Close the profiler's open sample block so host time spent outside the
  // kernel (between runs) is never charged to a site.
  if (profiler_ != nullptr) profiler_->flush();
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    if (!ring_.empty()) {
      run_one_from_ring();
    } else if (heap_size_ > 0) {
      run_one_from_heap();
    } else {
      break;
    }
    ++executed;
    if (watchdog_ != nullptr) watchdog_->tick(now_);
  }
  if (profiler_ != nullptr) profiler_->flush();
  return executed;
}

void Scheduler::reset() {
  // Drain (not reallocate) both levels: RingBuffer::clear keeps its grown
  // storage, the key storage is never shrunk, and every pending slot goes
  // back to the free list, so a campaign worker's second run schedules into
  // warm arenas.
  ring_.clear();
  for (std::size_t i = 0; i < heap_size_; ++i) finish_slot(heap_[i].slot);
  heap_size_ = 0;
  now_ = 0;
  next_seq_ = 0;
  events_at_now_ = 0;
  stats_ = KernelStats{};
}

}  // namespace mts::sim
