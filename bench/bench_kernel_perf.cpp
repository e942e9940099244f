// Harness self-measurement (google-benchmark): how fast the discrete-event
// kernel and the full FIFO models simulate on the host. Not a paper
// experiment -- it documents the cost of using this library.
//
// Besides the google-benchmark table, this binary re-measures the kernel hot
// paths with an instrumented global allocator and writes BENCH_kernel.json
// (current directory) recording events/sec and allocations per event next to
// the frozen seed-kernel baseline, so the perf trajectory is tracked in-repo
// from PR 1 onward. `--smoke` runs only a small JSON measurement (used by CI
// to exercise the pool/free-list code under sanitizers).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "gates/gates.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sim/profiler.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

#include "campaign_workload.hpp"

// ---------------------------------------------------------------------------
// Instrumented allocator hook: counts every global operator new. The kernel's
// zero-allocation claim is verified by diffing this counter around measured
// regions (steady state only -- pools may still grow during warmup).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mts;
using sim::Time;

/// Self-rescheduling event chain: the idiomatic new-API callable (two
/// pointers, stored inline in the scheduler's small-buffer callback).
struct ChainTick {
  sim::Scheduler* sched;
  std::uint64_t* count;
  std::uint64_t limit;
  void operator()() const {
    if (++*count < limit) sched->after(1, ChainTick{sched, count, limit});
  }
};

/// Zero-delay cascade: every event reschedules itself at the same timestamp,
/// exercising the delta ring rather than the heap.
struct DeltaTick {
  sim::Scheduler* sched;
  std::uint64_t* remaining;
  void operator()() const {
    if (*remaining > 0) {
      --*remaining;
      sched->after(0, DeltaTick{sched, remaining});
    }
  }
};

/// Raw event throughput through the future-event heap.
void BM_SchedulerEventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t count = 0;
    sched.at(0, ChainTick{&sched, &count, 10'000});
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerEventChain);

/// The same chain with the kernel profiler armed: documents the cost of
/// per-event wall-clock attribution (two steady_clock reads + a site table
/// update per event). The dormant path above is the one CI guards.
void BM_SchedulerEventChainProfiled(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::KernelProfiler prof;
    sched.set_profiler(&prof);
    std::uint64_t count = 0;
    sched.at_site(0, prof.site("bench chain"),
                  ChainTick{&sched, &count, 10'000});
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerEventChainProfiled);

/// Deep-queue heap path: 256 self-rescheduling timers with seeded delays of
/// 1..64 ps keep ~256 future events pending, where the chain above runs at
/// depth 1. The Fig. 3 FIFO simulation (perfbench fig3_fifos) holds 15.3
/// future events on average and 239 at its peak (sampled every 1024th heap
/// pop), so this workload deliberately models the peak. Every timer tick
/// also makes an inertial write to one of 16 wires, so superseded commits
/// (cancelled, still popped) ride in the queue as they do in gate models.
class DeepQueue {
 public:
  static constexpr unsigned kTimers = 256;
  static constexpr unsigned kWires = 16;

  explicit DeepQueue(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Time> delay(1, 64);
    for (Time& d : delays_) d = delay(rng);
    for (unsigned w = 0; w < kWires; ++w) {
      wires_.push_back(
          std::make_unique<sim::Wire>(sim_, "w" + std::to_string(w)));
    }
    for (unsigned i = 0; i < kTimers; ++i) {
      sim_.sched().at(delays_[i], Tick{this, i});
    }
  }

  sim::Simulation& sim() { return sim_; }

 private:
  struct Tick {
    DeepQueue* q;
    std::uint32_t timer;
    void operator()() const { q->tick(timer); }
  };

  void tick(std::uint32_t timer) {
    const Time d = delays_[cursor_++ & (kDelays - 1)];
    sim::Wire& w = *wires_[timer % kWires];
    w.write(!w.read(), d / 2, sim::DelayKind::kInertial);
    sim_.sched().after(d, Tick{this, timer});
  }

  static constexpr std::size_t kDelays = 4096;  // power of two
  sim::Simulation sim_;
  std::vector<std::unique_ptr<sim::Wire>> wires_;
  std::array<Time, kDelays> delays_{};
  std::size_t cursor_ = 0;
};

void BM_SchedulerDeepQueue(benchmark::State& state) {
  DeepQueue q(1);
  Time t = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t e0 = q.sim().sched().events_executed();
    t += 1'000;
    q.sim().run_until(t);
    events += q.sim().sched().events_executed() - e0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SchedulerDeepQueue);

/// Raw event throughput through the delta ring (same-timestamp events).
void BM_SchedulerDeltaCascade(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t remaining = 10'000;
    sched.at(0, DeltaTick{&sched, &remaining});
    sched.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerDeltaCascade);

/// Signal fan-out: one wire driving many (old, new) change listeners.
void BM_SignalFanout(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  sim::Wire w(sim, "w");
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < fanout; ++i) {
    w.on_change([&sink](bool, bool) { ++sink; });
  }
  bool v = false;
  for (auto _ : state) {
    v = !v;
    w.set(v);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_SignalFanout)->Arg(4)->Arg(64);

/// Edge-typed fan-out: rising-edge listeners through the typed dispatch path
/// (half the set() calls are falling edges and skip every listener).
void BM_SignalEdgeFanout(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  sim::Wire w(sim, "w");
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < fanout; ++i) {
    w.on_rise([&sink] { ++sink; });
  }
  bool v = false;
  for (auto _ : state) {
    v = !v;
    w.set(v);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_SignalEdgeFanout)->Arg(4)->Arg(64);

/// Pooled-transaction write path: schedule + commit of an inertial write.
void BM_SignalInertialWrite(benchmark::State& state) {
  sim::Simulation sim;
  sim::Wire w(sim, "w");
  bool v = false;
  for (auto _ : state) {
    v = !v;
    w.write(v, 1, sim::DelayKind::kInertial);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignalInertialWrite);

/// Whole-FIFO simulation speed: simulated put cycles per host second.
void BM_MixedClockFifoSim(benchmark::State& state) {
  const auto capacity = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fifo::FifoConfig cfg;
    cfg.capacity = capacity;
    cfg.width = 8;
    sim::Simulation sim(1);
    const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
    const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
    fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
    bfm::Scoreboard sb(sim, "sb");
    bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                           dut.full(), cfg.dm, {1.0, 1}, 0xFF);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {1.0, 1});
    sim.run_until(4 * pp + 200 * pp);
    benchmark::DoNotOptimize(dut.occupancy());
  }
  state.SetItemsProcessed(state.iterations() * 200);  // simulated put cycles
}
BENCHMARK(BM_MixedClockFifoSim)->Arg(4)->Arg(16);

/// Async-sync FIFO simulation speed.
void BM_AsyncSyncFifoSim(benchmark::State& state) {
  for (auto _ : state) {
    fifo::FifoConfig cfg;
    cfg.capacity = 8;
    cfg.width = 8;
    sim::Simulation sim(1);
    const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
    sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
    fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
    bfm::Scoreboard sb(sim, "sb");
    bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                            dut.put_data(), cfg.dm, 0, 0xFF, &sb);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {1.0, 1});
    sim.run_until(4 * gp + 200 * gp);
    benchmark::DoNotOptimize(dut.occupancy());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_AsyncSyncFifoSim);

// ---------------------------------------------------------------------------
// BENCH_kernel.json: allocator-instrumented measurement of the two kernel
// hot paths, with the frozen seed baseline for before/after comparison.
// ---------------------------------------------------------------------------

struct HotPathMeasurement {
  double events_per_sec = 0.0;
  double allocs_per_million_events = 0.0;
  sim::KernelStats stats;  ///< scheduler counters after the measured run
};

/// Runs a heap-path event chain of `events` events twice on one scheduler:
/// the first pass grows the pools, the second (measured) pass must be
/// allocation-free.
HotPathMeasurement measure_chain(std::uint64_t events) {
  sim::Scheduler sched;
  std::uint64_t count = 0;
  sched.at(0, ChainTick{&sched, &count, events});
  sched.run();  // warmup: pools grow to steady state here

  count = 0;
  sched.after(1, ChainTick{&sched, &count, events});
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sched.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(events) / secs;
  m.allocs_per_million_events =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(events);
  m.stats = sched.stats();
  return m;
}

/// The heap-path chain with a KernelProfiler armed and every event
/// attributed to a registered site -- the worst-case per-event observability
/// overhead (timing + attribution on 100% of events).
HotPathMeasurement measure_chain_profiled(std::uint64_t events) {
  sim::Scheduler sched;
  sim::KernelProfiler prof;
  sched.set_profiler(&prof);
  const sim::KernelProfiler::SiteId site = prof.site("bench chain");
  std::uint64_t count = 0;
  sched.at_site(0, site, ChainTick{&sched, &count, events});
  sched.run();  // warmup

  count = 0;
  sched.at_site(sched.now() + 1, site, ChainTick{&sched, &count, events});
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sched.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(events) / secs;
  m.allocs_per_million_events =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(events);
  return m;
}

/// BM_SchedulerDeepQueue as an allocator-instrumented measurement: a warm-up
/// span grows every pool, then `span` ps are timed.
HotPathMeasurement measure_deep_queue(Time span) {
  DeepQueue q(1);
  sim::Simulation& sim = q.sim();
  sim.run_until(2'000);  // warmup: ring, key heap, slot pool, wire pools
  const std::uint64_t e0 = sim.sched().events_executed();
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(2'000 + span);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;
  const auto events =
      static_cast<double>(sim.sched().events_executed() - e0);

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = events / secs;
  m.allocs_per_million_events = static_cast<double>(allocs) * 1e6 / events;
  m.stats = sim.sched().stats();
  return m;
}

/// The deep-queue gate's reference, outside the kernel: a textbook binary
/// heap (std::push_heap/std::pop_heap) of DeepQueue::kTimers (time, seq)
/// keys, each popped key pushed back later by the same kind of seeded
/// delays. It tracks the host's speed but runs no kernel code, so a kernel
/// change can move the deep-queue side of the ratio only. Returns pop+push
/// pairs per second.
double measure_reference_heap(std::uint64_t ops) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<Time> delay(1, 64);
  std::array<Time, 4096> delays{};  // power of two
  for (Time& d : delays) d = delay(rng);
  using Key = std::pair<Time, std::uint64_t>;
  const std::greater<Key> later;
  std::vector<Key> heap;
  std::uint64_t seq = 0;
  for (unsigned i = 0; i < DeepQueue::kTimers; ++i) {
    heap.emplace_back(delays[i], seq++);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Key& k = heap.back();
    sink += k.second;
    k = Key{k.first + delays[i & (delays.size() - 1)], seq++};
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(ops) /
         std::chrono::duration<double>(t1 - t0).count();
}

/// Steady-state inertial write+commit cycles on one wire.
HotPathMeasurement measure_signal_writes(std::uint64_t writes) {
  sim::Simulation sim;
  sim::Wire w(sim, "w");
  bool v = false;
  for (int i = 0; i < 1000; ++i) {  // warmup: transaction pool + ring growth
    v = !v;
    w.write(v, 1, sim::DelayKind::kInertial);
    sim.run();
  }
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < writes; ++i) {
    v = !v;
    w.write(v, 1, sim::DelayKind::kInertial);
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(writes) / secs;
  m.allocs_per_million_events =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(writes);
  return m;
}

/// The mixed-clock FIFO soak with protocol monitors disarmed or armed. The
/// disarmed number is the one CI gates (scripts/check_kernel_perf.py, 5%
/// tolerance): components probe sim.monitors() once at construction, so a
/// run without an armed verify::Hub must cost the same as before the
/// monitor subsystem existed. The armed number is informational -- it
/// documents what the always-on checkers cost when you opt in.
HotPathMeasurement measure_fifo_monitored(std::uint64_t cycles, bool armed) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  verify::Hub hub;
  hub.set_policy(verify::Policy::kCount);
  if (armed) hub.arm(sim);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {1.0, 1});
  sim.run_until(4 * pp + 64 * pp);  // warmup: arenas + listener tables

  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(4 * pp + (64 + cycles) * pp);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(cycles) / secs;  // put cycles/sec
  m.allocs_per_million_events =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(cycles);
  return m;
}

/// The mixed-clock FIFO soak with the telemetry sampler disarmed or armed.
/// Mirrors measure_fifo_monitored: components probe obs.telemetry once at
/// construction, so the disarmed run must cost the same as before the
/// sampler existed (CI gates it at the shared 5% tolerance). The armed run
/// samples every FIFO/relay source plus the registry each interval -- that
/// cost is informational and bounded by a looser ceiling.
HotPathMeasurement measure_fifo_telemetry(std::uint64_t cycles, bool armed) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  metrics::Registry registry;
  sim::TelemetryConfig tcfg;
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  tcfg.interval = 4 * pp;  // a sample every four put cycles: aggressive
  sim::Telemetry telemetry(tcfg);
  sim::Observability obs;  // armed pointer lives in sim: must span the run
  if (armed) {
    obs.metrics = &registry;
    obs.telemetry = &telemetry;
    obs.arm(sim);
  }
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {1.0, 1});
  sim.run_until(4 * pp + 64 * pp);  // warmup: arenas + series buffers

  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(4 * pp + (64 + cycles) * pp);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

  HotPathMeasurement m;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(cycles) / secs;  // put cycles/sec
  m.allocs_per_million_events =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(cycles);
  return m;
}

/// Raw sampler throughput: how many telemetry samples per host second a
/// store with `sources` probes plus a registry of histograms can absorb.
/// Isolates the sampler from the FIFO model so BENCH_telemetry.json records
/// the cost of one take_sample() independent of workload.
double measure_sampler_rate(std::size_t sources, std::uint64_t samples) {
  sim::Simulation sim;
  metrics::Registry registry;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 1;
  tcfg.max_points = 512;
  sim::Telemetry telemetry(tcfg);
  double x = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    telemetry.add_source("src" + std::to_string(i), "bench", "value",
                         [&x] { return x; });
  }
  registry.set_default_window(1024);
  metrics::Histogram& h =
      registry.histogram("bench", "latency_ps", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 256; ++i) h.observe(static_cast<double>(i));
  telemetry.set_registry(&registry);
  sim::Observability obs;
  obs.telemetry = &telemetry;
  obs.arm(sim);
  for (std::uint64_t i = 0; i < 64; ++i) telemetry.sample_now();  // warmup

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < samples; ++i) {
    x += 1.0;
    telemetry.sample_now();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(samples) / secs;
}

template <typename MeasureFn>
HotPathMeasurement best_of(int reps, MeasureFn measure);
void keep_best(HotPathMeasurement& best, const HotPathMeasurement& m);

/// The disarmed and armed FIFO soaks of `cycles`, measured in `reps`
/// back-to-back pairs: best-of throughputs, and the armed overhead as the
/// median of the per-pair slowdowns, so a slow phase of a shared host
/// (which hits both halves of a pair alike) does not move it.
struct SoakPair {
  HotPathMeasurement off;
  HotPathMeasurement on;
  double overhead_pct = 0.0;
};
SoakPair measure_soak_pair(std::uint64_t cycles, int reps) {
  SoakPair p;
  std::vector<double> slowdowns;
  for (int i = 0; i < reps; ++i) {
    const HotPathMeasurement off = measure_fifo_telemetry(cycles, false);
    const HotPathMeasurement on = measure_fifo_telemetry(cycles, true);
    slowdowns.push_back(off.events_per_sec / on.events_per_sec);
    if (i == 0) {
      p.off = off;
      p.on = on;
    } else {
      keep_best(p.off, off);
      keep_best(p.on, on);
    }
  }
  std::sort(slowdowns.begin(), slowdowns.end());
  p.overhead_pct = (slowdowns[slowdowns.size() / 2] - 1.0) * 100.0;
  return p;
}

/// BENCH_telemetry.json: the sampler's own cost trajectory. The disarmed
/// FIFO number is gated by scripts/check_kernel_perf.py against the armed
/// monitors-era disarmed baseline -- telemetry must be free when off. The
/// armed soak also runs ten times longer: a sample's cost must not grow
/// with run length, so check_kernel_perf.py holds the long slowdown to the
/// short one from the same run.
void write_telemetry_json(bool smoke) {
  const std::uint64_t fifo_cycles = smoke ? 400 : 4'000;
  const std::uint64_t long_cycles = 10 * fifo_cycles;
  const SoakPair soak = measure_soak_pair(fifo_cycles, 7);
  const SoakPair soak_long = measure_soak_pair(long_cycles, 7);
  const HotPathMeasurement& off = soak.off;
  const HotPathMeasurement& on = soak.on;
  const double overhead_pct = soak.overhead_pct;
  const double overhead_pct_long = soak_long.overhead_pct;

  const std::uint64_t sampler_samples = smoke ? 20'000 : 200'000;
  double rate_small = measure_sampler_rate(8, sampler_samples);
  double rate_large = measure_sampler_rate(64, sampler_samples);
  for (int i = 1; i < 3; ++i) {
    rate_small = std::max(rate_small, measure_sampler_rate(8, sampler_samples));
    rate_large =
        std::max(rate_large, measure_sampler_rate(64, sampler_samples));
  }

  FILE* f = std::fopen("BENCH_telemetry.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "bench_kernel_perf: cannot write BENCH_telemetry.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"note\": \"time-series sampler cost; disarmed must "
                  "match the plain FIFO soak (gated), armed samples every "
                  "source each 4 put cycles (ceiling only); the long armed "
                  "soak must cost no more per cycle than the short one "
                  "(gated)\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"fifo_soak\": {\n");
  std::fprintf(f, "    \"cycles\": %llu,\n",
               static_cast<unsigned long long>(fifo_cycles));
  std::fprintf(f, "    \"cycles_per_sec_disarmed\": %.4g,\n",
               off.events_per_sec);
  std::fprintf(f, "    \"cycles_per_sec_armed\": %.4g,\n", on.events_per_sec);
  std::fprintf(f, "    \"armed_overhead_pct\": %.1f,\n", overhead_pct);
  std::fprintf(f, "    \"allocs_per_million_cycles_disarmed\": %.4g,\n",
               off.allocs_per_million_events);
  std::fprintf(f, "    \"cycles_long\": %llu,\n",
               static_cast<unsigned long long>(long_cycles));
  std::fprintf(f, "    \"armed_overhead_pct_long\": %.1f\n",
               overhead_pct_long);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sampler\": {\n");
  std::fprintf(f, "    \"samples\": %llu,\n",
               static_cast<unsigned long long>(sampler_samples));
  std::fprintf(f, "    \"samples_per_sec_8_sources\": %.4g,\n", rate_small);
  std::fprintf(f, "    \"samples_per_sec_64_sources\": %.4g,\n", rate_large);
  std::fprintf(f, "    \"registry_histograms\": 1,\n");
  std::fprintf(f, "    \"histogram_window\": 1024\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("BENCH_telemetry.json: FIFO soak disarmed %.3g cycles/s, armed "
              "%.3g (+%.1f%%, +%.1f%% at %llu cycles); sampler %.3g "
              "samples/s @8 sources, %.3g @64\n",
              off.events_per_sec, on.events_per_sec, overhead_pct,
              overhead_pct_long, static_cast<unsigned long long>(long_cycles),
              rate_small, rate_large);
}

// Seed-kernel numbers, measured on the reference host at the growth seed
// (std::function callbacks, single priority_queue, shared_ptr transactions):
// google-benchmark BM_SchedulerEventChain and a direct allocation probe.
constexpr double kSeedChainEventsPerSec = 23.67e6;
constexpr double kSeedChainAllocsPerMillionEvents = 1e6;    // 1.0 per event
constexpr double kSeedSignalAllocsPerMillionWrites = 2e6;   // 2.0 per write

/// Best of `reps` runs: throughput is max (transient system load only ever
/// slows a run down) and the allocation count is min for the same reason.
template <typename MeasureFn>
HotPathMeasurement best_of(int reps, MeasureFn measure) {
  HotPathMeasurement best = measure();
  for (int i = 1; i < reps; ++i) keep_best(best, measure());
  return best;
}

void keep_best(HotPathMeasurement& best, const HotPathMeasurement& m) {
  if (m.events_per_sec > best.events_per_sec) {
    best.events_per_sec = m.events_per_sec;
  }
  if (m.allocs_per_million_events < best.allocs_per_million_events) {
    best.allocs_per_million_events = m.allocs_per_million_events;
  }
}

/// One deep-queue measurement simulates ~5e5 events and is paired with
/// 2e6 reference-heap operations, in smoke and full runs alike.
constexpr Time kDeepQueueSpan = 32'000;
constexpr std::uint64_t kReferenceHeapOps = 2'000'000;

void write_kernel_json(bool smoke) {
  const std::uint64_t chain_events = smoke ? 200'000 : 4'000'000;
  const std::uint64_t signal_writes = smoke ? 100'000 : 1'000'000;

  const HotPathMeasurement chain =
      best_of(3, [&] { return measure_chain(chain_events); });
  const HotPathMeasurement profiled =
      best_of(3, [&] { return measure_chain_profiled(chain_events); });
  const HotPathMeasurement sig =
      best_of(3, [&] { return measure_signal_writes(signal_writes); });
  // The deep queue is paired with a reference-heap run each time:
  // check_kernel_perf.py gates the median per-pair ratio, so a host phase
  // that slows both cancels out.
  HotPathMeasurement deep = measure_deep_queue(kDeepQueueSpan);
  std::vector<double> deep_ratios;
  for (int i = 0; i < 5; ++i) {
    const double ref = measure_reference_heap(kReferenceHeapOps);
    const HotPathMeasurement d = measure_deep_queue(kDeepQueueSpan);
    keep_best(deep, d);
    deep_ratios.push_back(d.events_per_sec / ref);
  }
  std::sort(deep_ratios.begin(), deep_ratios.end());
  const double deep_ratio = deep_ratios[deep_ratios.size() / 2];

  const std::uint64_t fifo_cycles = smoke ? 400 : 4'000;
  const HotPathMeasurement mon_off =
      best_of(3, [&] { return measure_fifo_monitored(fifo_cycles, false); });
  const HotPathMeasurement mon_on =
      best_of(3, [&] { return measure_fifo_monitored(fifo_cycles, true); });

  // Campaign scaling on the shared FIFO-soak workload (see
  // campaign_workload.hpp). Speedup is bounded by host cores; host_cores
  // is recorded so a 1-core box reporting ~1.0x reads as what it is.
  const std::size_t campaign_reps = smoke ? 3 : 8;
  const unsigned campaign_cycles = smoke ? 100 : 300;
  const unsigned campaign_workers[] = {1, 2, 4, 8};
  double campaign_rps[std::size(campaign_workers)] = {};
  for (std::size_t i = 0; i < std::size(campaign_workers); ++i) {
    campaign_rps[i] = benchwork::measure_campaign_runs_per_sec(
        campaign_workers[i], 3, campaign_reps, campaign_cycles);
  }

  // Kernel health counters, snapshotted from the scheduler that actually
  // executed the measured heap-path chain (warmup pass + measured pass).
  const sim::KernelStats ks = chain.stats;

  FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernel_perf: cannot write BENCH_kernel.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"note\": \"kernel hot-path trajectory; 'seed' numbers "
                  "were measured on the reference host before the two-level "
                  "queue / pooled-event refactor (PR 1)\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"seed\": {\n");
  std::fprintf(f, "    \"scheduler_chain_events_per_sec\": %.4g,\n",
               kSeedChainEventsPerSec);
  std::fprintf(f, "    \"scheduler_chain_allocs_per_million_events\": %.4g,\n",
               kSeedChainAllocsPerMillionEvents);
  std::fprintf(f, "    \"signal_write_allocs_per_million_writes\": %.4g\n",
               kSeedSignalAllocsPerMillionWrites);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"current\": {\n");
  std::fprintf(f, "    \"scheduler_chain_events_per_sec\": %.4g,\n",
               chain.events_per_sec);
  std::fprintf(f, "    \"scheduler_chain_allocs_per_million_events\": %.4g,\n",
               chain.allocs_per_million_events);
  std::fprintf(f, "    \"scheduler_chain_speedup_vs_seed\": %.2f,\n",
               chain.events_per_sec / kSeedChainEventsPerSec);
  std::fprintf(f, "    \"signal_write_commit_pairs_per_sec\": %.4g,\n",
               sig.events_per_sec);
  std::fprintf(f, "    \"signal_write_allocs_per_million_writes\": %.4g\n",
               sig.allocs_per_million_events);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"observability\": {\n");
  std::fprintf(f, "    \"chain_events_per_sec_dormant\": %.4g,\n",
               chain.events_per_sec);
  std::fprintf(f, "    \"chain_events_per_sec_profiled\": %.4g,\n",
               profiled.events_per_sec);
  std::fprintf(f, "    \"profiler_overhead_pct\": %.1f\n",
               (chain.events_per_sec / profiled.events_per_sec - 1.0) * 100.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"monitors\": {\n");
  std::fprintf(f, "    \"fifo_cycles\": %llu,\n",
               static_cast<unsigned long long>(fifo_cycles));
  std::fprintf(f, "    \"fifo_cycles_per_sec_disarmed\": %.4g,\n",
               mon_off.events_per_sec);
  std::fprintf(f, "    \"fifo_cycles_per_sec_armed\": %.4g,\n",
               mon_on.events_per_sec);
  std::fprintf(f, "    \"armed_overhead_pct\": %.1f\n",
               (mon_off.events_per_sec / mon_on.events_per_sec - 1.0) * 100.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"deep_queue\": {\n");
  std::fprintf(f, "    \"workload\": \"%u self-rescheduling timers, seeded "
                  "delays 1..64 ps, an inertial write per tick on %u "
                  "wires\",\n",
               DeepQueue::kTimers, DeepQueue::kWires);
  std::fprintf(f, "    \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"events_per_sec\": %.4g,\n", deep.events_per_sec);
  std::fprintf(f, "    \"allocs_per_million_events\": %.4g,\n",
               deep.allocs_per_million_events);
  std::fprintf(f, "    \"peak_queue_depth\": %llu,\n",
               static_cast<unsigned long long>(deep.stats.peak_queue_depth));
  std::fprintf(f, "    \"ratio_to_reference_heap\": %.4f\n", deep_ratio);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"campaign\": {\n");
  std::fprintf(f, "    \"runs\": %zu,\n",
               static_cast<std::size_t>(3) * campaign_reps);
  std::fprintf(f, "    \"cycles_per_run\": %u,\n", campaign_cycles);
  std::fprintf(f, "    \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"runs_per_sec\": {");
  for (std::size_t i = 0; i < std::size(campaign_workers); ++i) {
    std::fprintf(f, "%s\"%u\": %.1f", i == 0 ? "" : ", ", campaign_workers[i],
                 campaign_rps[i]);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "    \"speedup_4w_vs_1w\": %.2f\n",
               campaign_rps[2] / campaign_rps[0]);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"kernel_stats_probe\": {\n");
  std::fprintf(f, "    \"workload\": \"measured heap-path chain "
                  "(warmup pass + measured pass)\",\n");
  std::fprintf(f, "    \"events_executed\": %llu,\n",
               static_cast<unsigned long long>(ks.events_executed));
  std::fprintf(f, "    \"peak_queue_depth\": %llu,\n",
               static_cast<unsigned long long>(ks.peak_queue_depth));
  std::fprintf(f, "    \"pool_high_water\": %llu\n",
               static_cast<unsigned long long>(ks.pool_high_water));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\nBENCH_kernel.json: chain %.3g events/s (%.2fx seed), "
              "%.3g allocs/Mevent (seed %.3g); signal writes %.3g allocs/Mwrite "
              "(seed %.3g); profiler armed %.3g events/s (+%.1f%% overhead); "
              "deep queue %.3g events/s (%.3f of reference heap); "
              "monitors disarmed %.3g cycles/s, armed %.3g (+%.1f%%); "
              "campaign %.1f runs/s @1w, %.2fx @4w (%u host cores)\n",
              chain.events_per_sec,
              chain.events_per_sec / kSeedChainEventsPerSec,
              chain.allocs_per_million_events, kSeedChainAllocsPerMillionEvents,
              sig.allocs_per_million_events, kSeedSignalAllocsPerMillionWrites,
              profiled.events_per_sec,
              (chain.events_per_sec / profiled.events_per_sec - 1.0) * 100.0,
              deep.events_per_sec, deep_ratio,
              mon_off.events_per_sec, mon_on.events_per_sec,
              (mon_off.events_per_sec / mon_on.events_per_sec - 1.0) * 100.0,
              campaign_rps[0], campaign_rps[2] / campaign_rps[0],
              std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  write_kernel_json(smoke);
  write_telemetry_json(smoke);
  return 0;
}
