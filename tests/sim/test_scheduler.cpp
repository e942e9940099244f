#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mts::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameTimestampRunsInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int hits = 0;
  s.at(10, [&] {
    ++hits;
    s.after(5, [&] { ++hits; });
  });
  s.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), 15u);
}

TEST(Scheduler, ZeroDelayEventRunsAtSameTimeAfterCurrent) {
  Scheduler s;
  std::vector<int> order;
  s.at(10, [&] {
    s.after(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  s.at(10, [&] { order.push_back(3); });
  s.run();
  // The zero-delay event was scheduled after both time-10 events existed,
  // so it runs last within t=10.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  s.at(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), AssertionError);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
  Scheduler s;
  s.run_until(1000);
  EXPECT_EQ(s.now(), 1000u);
}

TEST(Scheduler, RunUntilDoesNotExecuteLaterEvents) {
  Scheduler s;
  int hits = 0;
  s.at(50, [&] { ++hits; });
  s.at(150, [&] { ++hits; });
  s.run_until(100);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(s.now(), 100u);
  s.run_until(200);
  EXPECT_EQ(hits, 2);
}

TEST(Scheduler, RunUntilInclusiveOfBoundary) {
  Scheduler s;
  int hits = 0;
  s.at(100, [&] { ++hits; });
  s.run_until(100);
  EXPECT_EQ(hits, 1);
}

TEST(Scheduler, OscillationGuardThrows) {
  Scheduler s;
  s.set_timestamp_budget(100);
  std::function<void()> loop = [&] { s.after(0, loop); };
  s.at(10, loop);
  EXPECT_THROW(s.run(), SimulationError);
}

TEST(Scheduler, RunBudgetStopsExecution) {
  Scheduler s;
  int hits = 0;
  std::function<void()> loop = [&] {
    ++hits;
    s.after(1, loop);
  };
  s.at(0, loop);
  EXPECT_EQ(s.run(100), 100u);
  EXPECT_EQ(hits, 100);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingCountsQueuedEvents) {
  Scheduler s;
  s.at(1, [] {});
  s.at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
}

// Events at one timestamp enter through both queue levels: those scheduled
// before time advances sit in the future heap, those scheduled while the
// timestamp is executing go straight to the delta ring. Scheduling order
// must hold across that boundary.
TEST(Scheduler, FifoOrderAcrossRingHeapBoundary) {
  Scheduler s;
  std::vector<int> order;
  s.at(5, [&] {
    order.push_back(1);
    s.at(5, [&] { order.push_back(4); });  // ring entry
    s.at(5, [&] { order.push_back(5); });  // ring entry
  });
  s.at(5, [&] { order.push_back(2); });  // heap sibling of the first event
  s.at(5, [&] { order.push_back(3); });  // heap sibling of the first event
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// The per-timestamp budget must count ring events belonging to a timestamp
// that was entered via the heap, and must reset when time advances.
TEST(Scheduler, OscillationBudgetSpansBothQueueLevels) {
  Scheduler s;
  s.set_timestamp_budget(50);
  std::function<void()> loop = [&] { s.after(0, loop); };
  s.at(7, loop);  // enters at t=7 through the heap, then loops in the ring
  EXPECT_THROW(s.run(), SimulationError);

  Scheduler ok;
  ok.set_timestamp_budget(50);
  int hits = 0;
  std::function<void()> advance = [&] {
    if (++hits < 200) ok.after(1, advance);
  };
  ok.at(0, advance);
  ok.run();  // 200 events, but only one per timestamp: budget never trips
  EXPECT_EQ(hits, 200);
}

TEST(Scheduler, StatsCountExecutedEventsAndPeakDepth) {
  Scheduler s;
  EXPECT_EQ(s.stats().events_executed, 0u);
  for (int i = 0; i < 8; ++i) {
    s.at(static_cast<Time>(i + 1), [] {});
  }
  EXPECT_EQ(s.stats().peak_queue_depth, 8u);
  s.run();
  EXPECT_EQ(s.stats().events_executed, 8u);
  EXPECT_GE(s.stats().pool_high_water, 8u);
}

// Steady-state chains must recycle queue storage rather than grow it: the
// pool high-water mark after a million-event chain stays at the small
// initial footprint.
TEST(Scheduler, SteadyStateChainDoesNotGrowPools) {
  Scheduler s;
  std::uint64_t count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100'000) s.after(1, tick);
  };
  s.at(1, tick);
  s.run();
  EXPECT_EQ(count, 100'000u);
  // One outstanding event at a time: a handful of slots at most.
  EXPECT_LE(s.stats().pool_high_water, 64u);
}

// reset() is the campaign engine's arena-reuse hook: it must return the
// scheduler to t=0 with empty queues and zeroed counters while KEEPING the
// grown event-pool storage, so a worker's next run allocates nothing.
TEST(Scheduler, ResetDropsPendingWorkButKeepsArenas) {
  Scheduler s;
  int late_fires = 0;
  for (int i = 0; i < 32; ++i) {
    s.at(static_cast<Time>(100 + i), [&] { ++late_fires; });
  }
  s.run_until(50);  // nothing executed yet; queue is primed
  const std::size_t grown_pool = s.stats().pool_high_water;
  EXPECT_GE(grown_pool, 32u);

  s.reset();
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.stats().events_executed, 0u);
  EXPECT_EQ(s.stats().peak_queue_depth, 0u);
  // Pending callbacks were destroyed, not deferred.
  s.run();
  EXPECT_EQ(late_fires, 0);
  EXPECT_EQ(s.now(), 0u);

  // The arena survived: refilling to the same depth allocates no new slots.
  int refill_fires = 0;
  for (int i = 0; i < 32; ++i) {
    s.at(static_cast<Time>(10 + i), [&] { ++refill_fires; });
  }
  s.run();
  EXPECT_EQ(refill_fires, 32);
  EXPECT_EQ(s.stats().events_executed, 32u);
  EXPECT_LE(s.stats().pool_high_water, grown_pool);
}

// Differential check of the kernel's event order against its
// specification: every executed event is the earliest pending one by
// (time, global scheduling order), whichever queue level it entered through.
// A seeded random schedule mixes a few hundred pending timers, a pile of
// ties at one timestamp, zero-delay and short-delay children of both heap
// and ring events, oversized callbacks, run_until horizons and a reset()
// mid-run.
class OrderModel {
 public:
  explicit OrderModel(std::uint64_t seed) : rng_(seed) {}

  Scheduler& sched() { return s_; }

  /// Schedules one event at `t`; its id is the global scheduling order.
  void schedule(Time t) {
    const std::uint64_t id = scheduled_.size();
    scheduled_.push_back({t, id});
    if (coin(0.1)) {
      // Too big for the inline buffer: the callback lives in a heap cell.
      std::array<std::uint64_t, 8> pad{};
      pad[7] = id;
      s_.at(t, [this, id, pad] {
        ASSERT_EQ(pad[7], id);
        fire(id);
      });
    } else {
      s_.at(t, [this, id] { fire(id); });
    }
  }

  /// Every event scheduled at or before `horizon`, sorted by (t, id): the
  /// order the kernel must have executed them in.
  std::vector<std::uint64_t> expected_through(Time horizon) const {
    std::vector<std::pair<Time, std::uint64_t>> due;
    for (const auto& e : scheduled_) {
      if (e.first <= horizon) due.push_back(e);
    }
    std::sort(due.begin(), due.end());
    std::vector<std::uint64_t> ids;
    for (const auto& e : due) ids.push_back(e.second);
    return ids;
  }

  const std::vector<std::uint64_t>& executed() const { return executed_; }
  std::size_t heap_children() const { return heap_children_; }
  std::size_t ring_children() const { return ring_children_; }

  /// Forgets the current epoch: reset() drops its pending events.
  void clear_epoch() {
    scheduled_.clear();
    executed_.clear();
    last_time_ = 0;
    first_run_ = true;
  }

  std::uint64_t spawn_budget = 0;

 private:
  bool coin(double p) { return std::bernoulli_distribution(p)(rng_); }

  void fire(std::uint64_t id) {
    ASSERT_EQ(s_.now(), scheduled_[id].first);
    // The first event of a timestamp leaves the heap directly; the rest of
    // that timestamp runs from the delta ring.
    const bool from_heap = first_run_ || s_.now() != last_time_;
    first_run_ = false;
    last_time_ = s_.now();
    executed_.push_back(id);
    const int children = std::uniform_int_distribution<int>(0, 2)(rng_);
    for (int c = 0; c < children && spawn_budget > 0; ++c) {
      --spawn_budget;
      Time delay = 0;
      if (coin(0.6)) {
        delay = std::uniform_int_distribution<Time>(1, coin(0.5) ? 3 : 64)(
            rng_);
      } else {
        ++(from_heap ? heap_children_ : ring_children_);
      }
      schedule(s_.now() + delay);
    }
  }

  Scheduler s_;
  std::mt19937_64 rng_;
  std::vector<std::pair<Time, std::uint64_t>> scheduled_;
  std::vector<std::uint64_t> executed_;
  Time last_time_ = 0;
  bool first_run_ = true;
  std::size_t heap_children_ = 0;
  std::size_t ring_children_ = 0;
};

TEST(Scheduler, ExecutionOrderMatchesTimeThenSchedulingOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    OrderModel m(seed);
    std::mt19937_64 draw(seed * 7919);
    auto pending_timers = [&](Time base) {
      for (int i = 0; i < 300; ++i) {
        // A third of the timers tie at one timestamp.
        const Time t = i % 3 == 0 ? base + 100
                                  : base + 1 + draw() % 400;
        m.schedule(t);
      }
    };

    pending_timers(0);
    m.spawn_budget = 2000;
    for (Time horizon : {50u, 100u, 101u, 250u}) {
      m.sched().run_until(horizon);
      ASSERT_EQ(m.executed(), m.expected_through(horizon)) << horizon;
    }
    ASSERT_FALSE(m.sched().empty());

    // reset() mid-run: the pending events of this epoch never run.
    m.sched().reset();
    m.clear_epoch();
    pending_timers(0);
    m.spawn_budget = 4000;
    m.sched().run();
    EXPECT_TRUE(m.sched().empty());
    ASSERT_EQ(m.executed(), m.expected_through(~Time{0}));
    EXPECT_GT(m.heap_children(), 0u);
    EXPECT_GT(m.ring_children(), 0u);
  }
}

// A callable too big for the inline buffer falls back to a heap cell; as a
// future event it still goes through the slot pool and runs intact.
TEST(Scheduler, OversizedCallbackRunsThroughThePool) {
  Scheduler s;
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
  std::uint64_t sum = 0;
  static_assert(sizeof(big) > kCallbackInlineSize);
  s.at(5, [&sum, big] {
    for (std::uint64_t v : big) sum += v;
  });
  s.at(5, [&sum, big] { sum += big[15]; });  // promoted sibling
  s.at(3, [&sum] { sum += 1000; });
  EXPECT_EQ(s.pool_slots(), 3u);
  s.run();
  EXPECT_EQ(sum, 1000u + 1240u + 225u);
  EXPECT_EQ(s.now(), 5u);
}

// A heap event runs in its pool slot. Scheduling enough events from inside
// it to carve new pool chunks must not move it: its captures stay intact
// after the pool grew, and its children never reuse the running slot.
TEST(Scheduler, RunningHeapEventStaysPutWhileThePoolGrows) {
  Scheduler s;
  std::array<std::uint64_t, 4> tag{11, 22, 33, 44};
  std::vector<int> order;
  std::array<std::uint64_t, 4> seen{};
  s.at(1, [&s, &order, &seen, tag] {
    for (int i = 0; i < 200; ++i) {
      s.after(1 + static_cast<Time>(i % 7),
              [&order, i] { order.push_back(i); });
    }
    seen = tag;  // read after the pool grew
  });
  s.run();
  EXPECT_EQ(seen, tag);
  EXPECT_EQ(order.size(), 200u);
  EXPECT_EQ(s.pool_slots(), 201u);
}

// A throwing heap event still destroys its captures and frees its slot.
TEST(Scheduler, ThrowingHeapEventReleasesItsSlot) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  s.at(1, [token] { throw std::runtime_error("boom"); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  s.at(2, [] {});
  s.run();
  EXPECT_EQ(s.pool_slots(), 1u);
}

// A ready-made Callback is accepted at both queue levels.
TEST(Scheduler, AcceptsACallbackObject) {
  Scheduler s;
  std::vector<int> order;
  s.at(3, Scheduler::Callback{[&order] { order.push_back(2); }});
  s.at(0, Scheduler::Callback{[&order] { order.push_back(1); }});
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Pending callbacks own their captures: reset() and the destructor destroy
// them, in both queue levels and in both callback storage kinds.
TEST(Scheduler, PendingCallbacksAreDestroyedByResetAndDestructor) {
  auto token = std::make_shared<int>(7);
  const std::array<std::uint64_t, 8> pad{};
  auto schedule_some = [&](Scheduler& s) {
    for (Time t = 0; t < 20; ++t) {
      s.at(t, [token] { ++*token; });
      s.at(t, [token, pad] { *token += static_cast<int>(pad[0]); });
    }
  };
  {
    Scheduler s;
    schedule_some(s);
    EXPECT_EQ(token.use_count(), 41);
    s.run_until(9);  // runs some, leaves heap and pool entries pending
    EXPECT_EQ(token.use_count(), 21);
    s.reset();
    EXPECT_EQ(token.use_count(), 1);

    schedule_some(s);
    EXPECT_EQ(token.use_count(), 41);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 7 + 10);
}

// Campaign workers reuse one scheduler per run: after a reset() that drops
// every pending timer, a warm second run of the same workload must grow
// neither the slot pool nor pool_high_water.
TEST(Scheduler, WarmSecondRunGrowsNoPool) {
  Scheduler s;
  std::mt19937_64 rng;
  std::function<void()> tick = [&] { s.after(1 + rng() % 64, tick); };
  auto workload = [&] {
    rng.seed(11);
    for (int i = 0; i < 256; ++i) s.at(rng() % 64, tick);
    s.run_until(5'000);  // every timer is still pending afterwards
    EXPECT_EQ(s.pending(), 256u);
  };
  workload();
  const std::size_t slots = s.pool_slots();
  const std::size_t high_water = s.stats().pool_high_water;
  EXPECT_GE(slots, 256u);
  s.reset();
  workload();
  EXPECT_EQ(s.pool_slots(), slots);
  EXPECT_EQ(s.stats().pool_high_water, high_water);
}

}  // namespace
}  // namespace mts::sim
