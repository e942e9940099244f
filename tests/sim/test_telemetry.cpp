#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_session.hpp"
#include "verify/hub.hpp"

namespace mts::sim {
namespace {

/// Self-rescheduling tick chain: keeps the queue non-empty for `limit`
/// ticks of `period` so the periodic probe has something to ride along.
void tick_chain(Simulation& sim, Time period, std::uint64_t* count,
                std::uint64_t limit) {
  if (++*count < limit) {
    sim.sched().after(period, [&sim, period, count, limit] {
      tick_chain(sim, period, count, limit);
    });
  }
}

TEST(Telemetry, SamplesEveryIntervalWhileEventsPend) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  std::uint64_t ticks = 0;
  sim.sched().after(kNanosecond,
                    [&] { tick_chain(sim, kNanosecond, &ticks, 200); });
  sim.run();
  EXPECT_EQ(ticks, 200u);
  // Ticks end at t = 200 ns; probes fire at 10, 20, ... until the queue
  // drains, so ~20 samples with at most one probe of slack either way.
  EXPECT_GE(tel.samples(), 19u);
  EXPECT_LE(tel.samples(), 21u);
  EXPECT_FALSE(tel.active());  // probe retired: the queue drained
  EXPECT_TRUE(sim.sched().empty());
}

TEST(Telemetry, ProbeRetiresAfterOneSampleOnAnIdleQueue) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  sim.run();  // only the probe is pending: one sample, then retirement
  EXPECT_EQ(tel.samples(), 1u);
  EXPECT_FALSE(tel.active());
  EXPECT_EQ(sim.now(), 10 * kNanosecond);  // drained one interval after start
}

TEST(Telemetry, SourcesSampleIntoSeriesAndDomainRollups) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("f0", "bus", "occupancy", [] { return 2.0; });
  tel.add_source("f1", "bus", "occupancy", [] { return 3.0; });
  tel.add_source("g0", "disp", "occupancy", [] { return 5.0; });
  tel.start(sim);
  sim.run();
  ASSERT_EQ(tel.samples(), 1u);
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("f0.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("f0.occupancy")->last(), 2.0);
  EXPECT_DOUBLE_EQ(st.find("f1.occupancy")->last(), 3.0);
  // Rollup: sum over the domain's sources of one kind.
  ASSERT_NE(st.find("domain.bus.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("domain.bus.occupancy")->last(), 5.0);
  ASSERT_NE(st.find("domain.disp.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("domain.disp.occupancy")->last(), 5.0);
}

TEST(Telemetry, KernelSeriesPresentAndHostSeriesOptIn) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  std::uint64_t ticks = 0;
  sim.sched().after(kNanosecond,
                    [&] { tick_chain(sim, kNanosecond, &ticks, 100); });
  sim.run();
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("kernel.events_per_us"), nullptr);
  EXPECT_GT(st.find("kernel.events_per_us")->last(), 0.0);
  ASSERT_NE(st.find("kernel.queue_depth"), nullptr);
  // Host-dependent series stay out of the default export (campaign
  // timelines must be worker-count independent).
  EXPECT_EQ(st.find("kernel.pool_high_water"), nullptr);

  Simulation sim2;
  cfg.include_host_series = true;
  Telemetry tel2(cfg);
  tel2.start(sim2);
  std::uint64_t ticks2 = 0;
  sim2.sched().after(kNanosecond,
                     [&] { tick_chain(sim2, kNanosecond, &ticks2, 100); });
  sim2.run();
  EXPECT_NE(tel2.store().find("kernel.pool_high_water"), nullptr);
}

TEST(Telemetry, RegistrySnapshotCoversCountersGaugesAndWindowPercentiles) {
  Simulation sim;
  metrics::Registry reg;
  reg.set_default_window(128);  // all 100 observations fit the window
  reg.counter("dut", "puts").inc(7);
  reg.gauge("dut", "fill").set(0.5);
  metrics::Histogram& h = reg.histogram("dut", "latency_ps", {1e6});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.set_registry(&reg);
  tel.start(sim);
  sim.run();
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("dut.puts"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.puts")->last(), 7.0);
  ASSERT_NE(st.find("dut.fill"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.fill")->last(), 0.5);
  // Windowed nearest-rank percentiles of the raw recent samples 1..100.
  ASSERT_NE(st.find("dut.latency_ps.p50"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.latency_ps.p50")->last(), 50.0);
  ASSERT_NE(st.find("dut.latency_ps.p999"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.latency_ps.p999")->last(), 100.0);
}

TEST(Telemetry, ViolationSeriesAppearOnlyWithAnArmedHub) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  sim.run();
  EXPECT_EQ(tel.store().find("verify.violations"), nullptr);

  Simulation sim2;
  verify::Hub hub;
  hub.set_policy(verify::Policy::kCount);
  hub.arm(sim2);
  Telemetry tel2(cfg);
  tel2.start(sim2);
  sim2.run();
  ASSERT_NE(tel2.store().find("verify.violations"), nullptr);
  EXPECT_DOUBLE_EQ(tel2.store().find("verify.violations")->last(), 0.0);
}

TEST(Telemetry, CounterTracksMergeIntoTraceSessionJson) {
  Simulation sim;
  TraceSession trace;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("dut", "bus", "occupancy", [] { return 4.0; });
  tel.attach_trace(&trace);
  tel.start(sim);
  sim.run();
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("dut.occupancy"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  // Still a well-formed traceEvents document after the splice.
  EXPECT_NE(json.rfind("]}"), std::string::npos);
}

TEST(Telemetry, ObservabilityArmWiresRegistryWindowAndStartsProbe) {
  Simulation sim;
  metrics::Registry reg;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  cfg.histogram_window = 77;
  Telemetry tel(cfg);
  Observability obs;
  obs.metrics = &reg;
  obs.telemetry = &tel;
  obs.arm(sim);
  EXPECT_TRUE(tel.active());
  EXPECT_EQ(reg.default_window(), 77u);  // windows armed before construction
  sim.run();
  EXPECT_EQ(tel.samples(), 1u);
}

TEST(Telemetry, ResetDropsSourcesSeriesAndSamplerState) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("dut", "bus", "occupancy", [] { return 1.0; });
  tel.start(sim);
  sim.run();
  EXPECT_GT(tel.samples(), 0u);
  tel.reset();
  EXPECT_EQ(tel.source_count(), 0u);
  EXPECT_EQ(tel.samples(), 0u);
  EXPECT_TRUE(tel.store().empty());
  EXPECT_FALSE(tel.active());
  // reset() keeps the config: the campaign engine re-arms the same object.
  EXPECT_EQ(tel.config().interval, kNanosecond);
}

// ---------------------------------------------------------------------------
// Sampling-plan invalidation: each case drives a Telemetry and a plan-free
// reference sampler at the same instants and compares the exported bytes.
// ---------------------------------------------------------------------------

/// Plan-free reference: resolves every series by name on every sample and
/// keys the rollups by a std::map -- the sampler without a cached plan.
/// Covers sources, rollups, kernel builtins and the registry (no hub).
class ReferenceSampler {
 public:
  explicit ReferenceSampler(std::size_t max_points) : store_(max_points) {}
  void add_source(std::string instance, std::string domain, std::string kind,
                  std::function<double()> fn) {
    sources_.push_back({std::move(instance), std::move(domain),
                        std::move(kind), std::move(fn)});
  }
  void set_registry(const metrics::Registry* r) { registry_ = r; }
  void start(Simulation& sim) {
    last_t_ = sim.now();
    last_events_ = sim.sched().events_executed();
  }
  void reset() {
    sources_.clear();
    registry_ = nullptr;
    store_.clear();
  }
  const metrics::TimeSeriesStore& store() const { return store_; }

  void sample(Simulation& sim) {
    const Time t = sim.now();
    const Time dt = t > last_t_ ? t - last_t_ : 0;
    std::map<std::pair<std::string, std::string>, double> rollup;
    for (const Src& s : sources_) {
      const double v = s.fn();
      store_.append(s.instance + "." + s.kind, t, v);
      rollup[{s.domain, s.kind}] += v;
    }
    for (const auto& [key, sum] : rollup) {
      store_.append("domain." + key.first + "." + key.second, t, sum);
    }
    const std::uint64_t events = sim.sched().events_executed();
    if (dt > 0) {
      store_.append("kernel.events_per_us", t,
                    static_cast<double>(events - last_events_) /
                        (static_cast<double>(dt) / 1e6));
    }
    store_.append("kernel.queue_depth", t,
                  static_cast<double>(sim.sched().pending()));
    last_events_ = events;
    if (registry_ != nullptr) {
      registry_->visit(
          [&](const std::string& i, const std::string& n,
              const metrics::Counter& c) {
            store_.append(i + "." + n, t, static_cast<double>(c.value()));
          },
          [&](const std::string& i, const std::string& n,
              const metrics::Gauge& g) {
            store_.append(i + "." + n, t, g.value());
          },
          [&](const std::string& i, const std::string& n,
              const metrics::Histogram& h) {
            const bool w = h.window_capacity() > 0;
            const auto pct = [&](double p) {
              return w ? h.window_percentile(p) : h.percentile(p);
            };
            const std::string base = i + "." + n;
            store_.append(base + ".p50", t, pct(0.50));
            store_.append(base + ".p95", t, pct(0.95));
            store_.append(base + ".p99", t, pct(0.99));
            store_.append(base + ".p999", t, pct(0.999));
          });
    }
    last_t_ = t;
  }

 private:
  struct Src {
    std::string instance, domain, kind;
    std::function<double()> fn;
  };
  std::vector<Src> sources_;
  const metrics::Registry* registry_ = nullptr;
  metrics::TimeSeriesStore store_;
  Time last_t_ = 0;
  std::uint64_t last_events_ = 0;
};

/// A Telemetry whose own probe never fires inside the test horizon, a
/// matching reference, and a tick chain that keeps the kernel busy; step()
/// advances and samples both at the same instant.
struct PlanHarness {
  PlanHarness() : tel(config()), ref(config().max_points) { arm(); }
  static TelemetryConfig config() {
    TelemetryConfig cfg;
    cfg.interval = kMillisecond;  // samples come only from step()
    cfg.max_points = 16;     // decimation follows the same append sequence
    return cfg;
  }
  void arm() {
    tel.start(sim);
    ref.start(sim);
    ticks = 0;
    sim.sched().after(kNanosecond,
                      [this] { tick_chain(sim, kNanosecond, &ticks, 5000); });
  }
  void step(int samples = 1) {
    for (int i = 0; i < samples; ++i) {
      sim.run_until(sim.now() + 7 * kNanosecond);
      tel.sample_now();
      ref.sample(sim);
    }
  }
  void expect_identical() const {
    EXPECT_EQ(tel.to_jsonl(), ref.store().to_jsonl());
    EXPECT_EQ(tel.to_csv(), ref.store().to_csv());
    EXPECT_EQ(tel.store().names(), ref.store().names());
  }

  Simulation sim;
  Telemetry tel;
  ReferenceSampler ref;
  std::uint64_t ticks = 0;
};

TEST(TelemetryPlan, MetricCreatedAfterFirstSampleIsPickedUp) {
  PlanHarness h;
  metrics::Registry reg;
  reg.set_default_window(8);
  reg.counter("mid", "puts").inc(2);
  h.tel.set_registry(&reg);
  h.ref.set_registry(&reg);
  h.step(3);
  // New metrics, one in an instance that sorts before every existing one.
  reg.gauge("mid", "fill").set(0.25);
  metrics::Histogram& lat = reg.histogram("aaa", "latency_ps", {1e3, 1e6});
  for (int i = 0; i < 20; ++i) lat.observe(100.0 * (i % 7));
  h.step(4);
  reg.counter("zzz", "gets").inc(5);
  reg.histogram("mid", "cumulative", {10.0});  // created before any window
  reg.counter("mid", "puts").inc();            // resolve only
  h.step(40);  // past max_points: every series decimates
  h.expect_identical();
  ASSERT_NE(h.tel.store().find("aaa.latency_ps.p999"), nullptr);
}

TEST(TelemetryPlan, SourceAddedAfterStartIsSampledAndRolledUp) {
  PlanHarness h;
  double x = 1.0;
  const auto add = [&](const char* inst, const char* dom, const char* kind) {
    h.tel.add_source(inst, dom, kind, [&x] { return x; });
    h.ref.add_source(inst, dom, kind, [&x] { return x; });
  };
  add("f1", "mid", "occupancy");
  h.step(2);
  x = 3.5;
  add("f0", "aaa", "occupancy");  // a rollup slot sorting first
  add("f2", "mid", "occupancy");  // joins an existing rollup
  h.step(3);
  add("f0", "aaa", "occupancy");  // duplicate name: two appends per sample
  add("r0", "mid", "stall_duty");
  x = 0.125;
  h.step(30);
  h.expect_identical();
  EXPECT_EQ(h.tel.source_count(), 5u);
}

TEST(TelemetryPlan, ResetAndRegistryClearBetweenRunsMatchFreshReference) {
  // The campaign engine's per-run hook: Telemetry::reset() and
  // Registry::clear() between runs on the same objects.
  PlanHarness h;
  metrics::Registry reg;
  reg.set_default_window(4);
  double x = 2.0;
  for (int run = 0; run < 3; ++run) {
    if (run > 0) {
      h.tel.reset();
      h.ref.reset();
      reg.clear();
      h.sim.reset(static_cast<std::uint64_t>(run));
      h.arm();
    }
    h.tel.set_registry(&reg);
    h.ref.set_registry(&reg);
    const std::string inst = run == 1 ? "b" : "a";  // different layouts
    reg.counter(inst, "puts").inc(static_cast<std::uint64_t>(run + 1));
    metrics::Histogram& lat = reg.histogram(inst, "lat", {10.0});
    for (int i = 0; i <= run * 3; ++i) lat.observe(static_cast<double>(i));
    h.tel.add_source(inst, "d", "occupancy", [&x] { return x; });
    h.ref.add_source(inst, "d", "occupancy", [&x] { return x; });
    h.step(5 + run);
    x += 1.0;
    h.step(20);
    h.expect_identical();
  }
}

TEST(TelemetryPlan, SetRegistryToAnotherRegistryRetargetsTheSnapshot) {
  PlanHarness h;
  // Same number of creations, so equal layout generations: only the
  // set_registry() call tells the sampler to re-resolve.
  metrics::Registry a;
  a.counter("a", "puts").inc(1);
  a.gauge("a", "fill").set(0.5);
  metrics::Registry b;
  b.counter("b", "gets").inc(9);
  b.histogram("b", "lat", {10.0}).observe(3.0);
  ASSERT_EQ(a.layout_generation(), b.layout_generation());
  h.tel.set_registry(&a);
  h.ref.set_registry(&a);
  h.step(3);
  h.tel.set_registry(&b);
  h.ref.set_registry(&b);
  h.step(3);
  h.tel.set_registry(nullptr);
  h.ref.set_registry(nullptr);
  h.step(2);
  h.tel.set_registry(&a);
  h.ref.set_registry(&a);
  h.step(2);
  h.expect_identical();
}

TEST(Telemetry, DisarmedRunRegistersNoSourcesViaObservability) {
  // The zero-cost contract at the API level: with no Telemetry in the
  // bundle, arm() leaves nothing behind for components to find.
  Simulation sim;
  Observability obs;
  obs.arm(sim);
  ASSERT_NE(sim.observability(), nullptr);
  EXPECT_EQ(sim.observability()->telemetry, nullptr);
}

}  // namespace
}  // namespace mts::sim
