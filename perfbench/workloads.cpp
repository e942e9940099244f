// The two single-simulation workloads: fig3_fifos and fig14_soc.
//
// Both are closed loops of EPISODES: build the design for the run's seed,
// warm it up, run a fixed number of reference-clock cycles in timed chunks,
// render its artifacts, check it, tear it down -- then the next episode,
// until --seconds have passed. Every episode of one run simulates the same
// inputs, so their simulated fingerprints must agree exactly; host-time
// metrics are medians over episodes.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "bfm/bfm.hpp"
#include "builder/builder.hpp"
#include "campaignd/snapshots.hpp"
#include "fifo/fifo.hpp"
#include "fifo/interface_sides.hpp"
#include "metrics/coverage.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

namespace perfbench {
namespace {

using namespace mts;
using sim::Time;

/// Run length in reference-clock cycles.
struct Shape {
  unsigned warm;     ///< before measuring (counted in setup)
  unsigned horizon;  ///< measured cycles
  unsigned chunk;    ///< cycles per timed run_until call
};

/// Observes one stream at its source and sink: item count and data-order
/// hash at the sink, and a simulated-latency histogram from a fixed ring of
/// put times (no allocation once constructed).
class SinkTap {
 public:
  explicit SinkTap(std::size_t ring) : ring_(ring), hist_(sim::latency_bounds()) {}

  void put(Time t) {
    if (n_ == ring_.size()) {
      overflow_ = true;
      return;
    }
    ring_[(head_ + n_) % ring_.size()] = t;
    ++n_;
  }
  void get(Time t, std::uint64_t data) {
    if (n_ > 0) {
      hist_.observe(static_cast<double>(t - ring_[head_]));
      head_ = (head_ + 1) % ring_.size();
      --n_;
    }
    order_ = fnv(order_, data);
    ++items_;
  }

  std::uint64_t items() const noexcept { return items_; }
  std::uint64_t order() const noexcept { return order_; }
  bool overflow() const noexcept { return overflow_; }
  const metrics::Histogram& hist() const noexcept { return hist_; }

 private:
  std::vector<Time> ring_;
  std::size_t head_ = 0;
  std::size_t n_ = 0;
  bool overflow_ = false;
  std::uint64_t items_ = 0;
  std::uint64_t order_ = kFnvBasis;
  metrics::Histogram hist_;
};

std::uint64_t hist_hash(std::uint64_t h, const metrics::Histogram& hist) {
  for (std::uint64_t c : hist.bucket_counts()) h = fnv(h, c);
  return fnv(h, hist.count());
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one episode measured.
struct Episode {
  double setup_s = 0.0;
  double export_s = 0.0;
  double total_s = 0.0;
  double measured_s = 0.0;  ///< host time of the measured cycles
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t items = 0;
  std::string fingerprint;
  sim::KernelStats kernel;
  // Layer details (filled where the workload has them).
  double elaborate_s = 0.0;
  std::uint64_t elements = 0;
  std::uint64_t violations = 0;
  double sample_s_early = 0.0;
  double sample_s_late = 0.0;
  double allocs_per_sample = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t points = 0;
  double report_s = 0.0;
  double timeline_s = 0.0;
  double trace_s = 0.0;
  std::uint64_t export_bytes = 0;
  double lat_p50 = 0.0;
  double lat_p99 = 0.0;
  double stall_duty = 0.0;
  std::uint64_t crossings = 0;
  std::uint64_t sb_errors = 0;
};

/// Runs the warm-up and the measured chunks on `sim`, filling the host-time
/// and kernel counters of `ep`. `items` reads the sink item count;
/// `after_warm` (nullable) runs between the warm-up and the measurement.
void run_measured(sim::Simulation& sim, Time ref_period, const Shape& shape,
                  Tracer* tracer, const std::function<std::uint64_t()>& items,
                  double t_start, Episode& ep,
                  const std::function<void()>& after_warm = nullptr) {
  Time t = 4 * ref_period;  // every clock's first edge is at 4 periods
  {
    Span s(tracer, "sim.run_until");
    t += shape.warm * ref_period;
    sim.run_until(t);
  }
  ep.setup_s = now_s() - t_start;
  if (after_warm) after_warm();

  const unsigned chunks = shape.horizon / shape.chunk;
  const std::uint64_t items0 = items();
  const std::uint64_t e0 = sim.sched().events_executed();
  const std::uint64_t a0 = allocs();
  for (unsigned c = 0; c < chunks; ++c) {
    const double c0 = now_s();
    {
      Span s(tracer, "sim.run_until");
      t += shape.chunk * ref_period;
      sim.run_until(t);
    }
    ep.measured_s += now_s() - c0;
  }
  ep.allocs = allocs() - a0;
  ep.events = sim.sched().events_executed() - e0;
  ep.cycles = static_cast<std::uint64_t>(chunks) * shape.chunk;
  ep.items = items() - items0;
}

/// Loops episodes until `seconds` have passed (at least `min_episodes`).
/// `episode(i)` runs episode i, pinned to rotation_cpu(i / kinds) so that
/// each of the `kinds` alternating kinds of episode visits every CPU.
void loop_episodes(double seconds, unsigned kinds, unsigned min_episodes,
                   const std::function<void(unsigned)>& episode) {
  const double t0 = now_s();
  for (unsigned i = 0; i < min_episodes || now_s() - t0 < seconds; ++i) {
    CpuPin pin(rotation_cpu(i / kinds));
    episode(i);
  }
}

/// Checks every episode's fingerprint against the first, and the pinned
/// fingerprints of the check episodes.
void check_fingerprints(const std::string& workload,
                        const std::vector<Episode>& eps,
                        const std::vector<std::pair<std::uint64_t, std::string>>&
                            pinned_runs,
                        Result& out) {
  for (std::size_t i = 1; i < eps.size(); ++i) {
    out.check(eps[i].fingerprint == eps[0].fingerprint,
              workload + ": episode " + std::to_string(i) +
                  " fingerprint differs from episode 0 (" +
                  eps[i].fingerprint + " vs " + eps[0].fingerprint + ")");
  }
  check_pinned(workload, pinned_runs, out);
}

template <typename F>
std::vector<double> each(const std::vector<Episode>& eps, F f) {
  std::vector<double> v;
  for (const Episode& e : eps) v.push_back(f(e));
  return v;
}

template <typename F>
double median_of(const std::vector<Episode>& eps, F f) {
  return median(each(eps, f));
}

/// Cycle rate over the whole measured phase, median over `eps`.
double cycle_rate(const std::vector<Episode>& eps) {
  return median_of(eps, [](const Episode& e) {
    return static_cast<double>(e.cycles) / e.measured_s;
  });
}

/// The end-to-end metrics shared by both single-simulation workloads.
void report_e2e(const std::vector<Episode>& eps, Result& out) {
  const Episode& e0 = eps.front();
  out.e2e("cycles_per_s", cycle_rate(eps), "1/s");
  out.e2e("allocs_per_cycle", median_of(eps, [](const Episode& e) {
            return static_cast<double>(e.allocs) /
                   static_cast<double>(e.cycles);
          }),
          "count");
  out.e2e("sim_items_per_cycle",
          static_cast<double>(e0.items) / static_cast<double>(e0.cycles),
          "count");
  out.e2e("export_s",
          median_of(eps, [](const Episode& e) { return e.export_s; }), "s");
  out.e2e("runs_per_s",
          1.0 / median_of(eps, [](const Episode& e) { return e.total_s; }),
          "1/s");
  out.e2e("setup_s", median_of(eps, [](const Episode& e) { return e.setup_s; }),
          "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Per-site profiler shares: clock cascades, asynchronous drivers, and
/// everything else.
void report_profile(const std::vector<Episode>& traced, Result& out) {
  double clock = 0.0;
  double driver = 0.0;
  double other = 0.0;
  for (const Episode& e : traced) {
    for (const sim::KernelSiteStat& s : e.kernel.hot_sites) {
      const auto ns = static_cast<double>(s.wall_ns);
      if (s.label.rfind("clock ", 0) == 0) {
        clock += ns;
      } else if (s.label.rfind("driver ", 0) == 0) {
        driver += ns;
      } else {
        other += ns;
      }
    }
  }
  const double all = std::max(1.0, clock + driver + other);
  out.layer("profile.clock_share", clock / all, "ratio");
  out.layer("profile.driver_share", driver / all, "ratio");
  out.layer("profile.other_share", other / all, "ratio");
  if (!traced.empty()) {
    for (const sim::KernelSiteStat& s : traced.back().kernel.hot_sites) {
      std::fprintf(stderr, "perfbench: profile site %-28s %10llu events %9.3f ms\n",
                   s.label.c_str(), static_cast<unsigned long long>(s.events),
                   static_cast<double>(s.wall_ns) / 1e6);
    }
  }
}

/// Kernel and simulated-statistics layer metrics from untraced episodes.
void report_kernel_layers(const std::vector<Episode>& eps, Result& out) {
  const Episode& e0 = eps.front();
  out.layer("sim.events_per_cycle",
            static_cast<double>(e0.events) / static_cast<double>(e0.cycles),
            "count");
  out.layer("sim.ns_per_event", median_of(eps, [](const Episode& e) {
              return e.measured_s * 1e9 / static_cast<double>(e.events);
            }),
            "ns");
  out.layer("sim.peak_queue_depth",
            static_cast<double>(e0.kernel.peak_queue_depth), "count");
  out.layer("sim.pool_high_water",
            static_cast<double>(e0.kernel.pool_high_water), "count");
  out.layer("fifo.latency_ps_p50", e0.lat_p50, "ps");
  out.layer("fifo.latency_ps_p99", e0.lat_p99, "ps");
  out.layer("lip.stall_duty", e0.stall_duty, "ratio");
  out.layer("sync.crossings", static_cast<double>(e0.crossings), "count");
  out.layer("bfm.scoreboard_errors", static_cast<double>(e0.sb_errors),
            "count");
}

/// Tracing overhead: traced episodes' cycle rate against untraced.
void report_trace_overhead(const std::vector<Episode>& plain,
                           const std::vector<Episode>& traced, Result& out) {
  out.layer("trace.overhead_pct",
            (cycle_rate(plain) / cycle_rate(traced) - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------------
// fig3_fifos: the mixed-clock FIFO (capacity 16) and the async-sync FIFO
// (capacity 8) side by side in one Simulation, nothing observability-related
// armed. The seed drives the stimulus draws and the clock phases; the
// offered rates are fixed so that runs on different seeds do the same
// amount of work.
// ---------------------------------------------------------------------------

fifo::FifoConfig fifo_config(unsigned capacity) {
  fifo::FifoConfig c;
  c.capacity = capacity;
  c.width = 8;
  return c;
}

constexpr Shape kFig3Shape{500, 16000, 500};
constexpr Shape kFig3CheckShape{500, 4000, 500};

struct Fig3 {
  Fig3(std::uint64_t seed, sim::Observability* obs)
      : sim(seed),
        // Observability is probed at construction: arm it before any part.
        armed(obs != nullptr ? (obs->arm(sim), true) : false),
        mc_cfg(fifo_config(16)),
        as_cfg(fifo_config(8)),
        pp(2 * fifo::SyncPutSide::min_period(mc_cfg)),
        gp(2 * fifo::SyncGetSide::min_period(mc_cfg)),
        ap(2 * fifo::SyncGetSide::min_period(as_cfg)),
        cp(sim, "cp", {pp, 4 * pp, 0.5, 0}),
        cg(sim, "cg", {gp, 4 * pp + gp / 3 + seed % 97, 0.5, 0}),
        ca(sim, "ca", {ap, 4 * pp + ap / 5 + seed % 89, 0.5, 0}),
        mc(sim, "mc", mc_cfg, cp.out(), cg.out()),
        as(sim, "as", as_cfg, ca.out()),
        cov("fig3"),
        sb_mc(sim, "sb_mc"),
        sb_as(sim, "sb_as"),
        mc_put_mon(sim, cp.out(), mc.en_put(), mc.req_put(), mc.data_put(),
                   sb_mc),
        mc_get_mon(sim, cg.out(), mc.valid_get(), mc.data_get(), sb_mc),
        as_get_mon(sim, ca.out(), as.valid_get(), as.data_get(), sb_as),
        mc_put(sim, "mc_put", cp.out(), mc.req_put(), mc.data_put(), mc.full(),
               mc_cfg.dm, {0.9, 1}, 0xFF),
        mc_get(sim, "mc_get", cg.out(), mc.req_get(), mc_cfg.dm, {0.9, 1}),
        as_put(sim, "as_put", as.put_req(), as.put_ack(), as.put_data(),
               as_cfg.dm, ap / 4, 0xFF, &sb_as),
        as_get(sim, "as_get", ca.out(), as.req_get(), as_cfg.dm, {0.9, 1}),
        tap_mc(64),
        tap_as(64) {
    metrics::cover_mixed_clock_fifo(cov, "mc", mc);
    metrics::cover_async_sync_fifo(cov, "as", as);
    cp.out().on_rise([this] {
      if (mc.en_put().read() && mc.req_put().read()) tap_mc.put(sim.now());
    });
    cg.out().on_rise([this] {
      if (mc.valid_get().read()) tap_mc.get(sim.now(), mc.data_get().read());
    });
    as.put_ack().on_rise([this] { tap_as.put(sim.now()); });
    ca.out().on_rise([this] {
      if (as.valid_get().read()) tap_as.get(sim.now(), as.data_get().read());
    });
    // Every side pauses for 40 of each 300 put periods, at staggered
    // offsets, so both FIFOs swing between empty and full.
    pause_every(&mc_get, 54 * pp);
    pause_every(&as_put, 124 * pp);
    pause_every(&mc_put, 204 * pp);
    pause_every(&as_get, 274 * pp);
  }

  template <typename Driver>
  void pause_every(Driver* d, Time first) {
    sim.sched().at(first, [this, d] {
      d->set_enabled(false);
      sim.sched().after(40 * pp, [this, d] {
        d->set_enabled(true);
        if constexpr (std::is_same_v<Driver, bfm::AsyncPutDriver>) {
          d->issue_one();
        }
        pause_every(d, sim.now() + 260 * pp);
      });
    });
  }

  std::uint64_t items() const { return tap_mc.items() + tap_as.items(); }

  std::string fingerprint() const {
    const std::uint64_t cov_hash =
        fnv_str(kFnvBasis, campaignd::coverage_to_json(cov).dump());
    return "mc:" + std::to_string(tap_mc.items()) + ":" + hex(tap_mc.order()) +
           ":" + hex(hist_hash(kFnvBasis, tap_mc.hist())) +
           " as:" + std::to_string(tap_as.items()) + ":" + hex(tap_as.order()) +
           ":" + hex(hist_hash(kFnvBasis, tap_as.hist())) +
           " cov:" + hex(cov_hash);
  }

  void check(Result& out) const {
    out.check(sb_mc.errors() == 0 && sb_as.errors() == 0,
              "fig3_fifos: scoreboard errors");
    out.check(mc.overflow_count() == 0 && mc.underflow_count() == 0 &&
                  as.overflow_count() == 0 && as.underflow_count() == 0,
              "fig3_fifos: FIFO overflow/underflow");
    out.check(tap_mc.items() == mc_get_mon.dequeued() &&
                  tap_as.items() == as_get_mon.dequeued() &&
                  !tap_mc.overflow() && !tap_as.overflow() &&
                  tap_mc.items() > 0 && tap_as.items() > 0,
              "fig3_fifos: sink taps disagree with the get monitors");
    out.check(cov.all_hit(), "fig3_fifos: coverage bins missed: " +
                                 cov.summary());
  }

  sim::Simulation sim;
  bool armed;
  fifo::FifoConfig mc_cfg;
  fifo::FifoConfig as_cfg;
  Time pp;
  Time gp;
  Time ap;
  sync::Clock cp;
  sync::Clock cg;
  sync::Clock ca;
  fifo::MixedClockFifo mc;
  fifo::AsyncSyncFifo as;
  metrics::Coverage cov;
  bfm::Scoreboard sb_mc;
  bfm::Scoreboard sb_as;
  bfm::PutMonitor mc_put_mon;
  bfm::GetMonitor mc_get_mon;
  bfm::GetMonitor as_get_mon;
  bfm::SyncPutDriver mc_put;
  bfm::SyncGetDriver mc_get;
  bfm::AsyncPutDriver as_put;
  bfm::SyncGetDriver as_get;
  SinkTap tap_mc;
  SinkTap tap_as;
};

Episode fig3_episode(std::uint64_t seed, const Shape& shape, Tracer* tracer,
                     Result& out) {
  Episode ep;
  const double t_start = now_s();
  sim::KernelProfiler prof;
  sim::Observability obs;
  obs.profiler = &prof;
  std::unique_ptr<Fig3> d;
  {
    Span s(tracer, "fifo.construct");
    d = std::make_unique<Fig3>(seed, tracer != nullptr ? &obs : nullptr);
  }
  Fig3& f = *d;
  run_measured(f.sim, f.pp, shape, tracer, [&f] { return f.items(); },
               t_start, ep);
  {
    Span s(tracer, "export.report");
    ep.export_s = time_render(
        [&f] {
          return f.sim.report().to_json().size() +
                 campaignd::coverage_to_json(f.cov).dump().size();
        },
        256, 5, ep.export_bytes);
  }
  ep.kernel = f.sim.sched().stats();
  ep.fingerprint = f.fingerprint();
  ep.lat_p50 = f.tap_mc.hist().percentile(0.50);
  ep.lat_p99 = f.tap_mc.hist().percentile(0.99);
  ep.crossings = f.items();  // every item crosses one timing boundary
  ep.sb_errors = f.sb_mc.errors() + f.sb_as.errors();
  f.check(out);
  {
    Span s(tracer, "fifo.destroy");
    d.reset();
  }
  ep.total_s = now_s() - t_start;
  return ep;
}

// ---------------------------------------------------------------------------
// fig14_soc: the Fig. 14 -> Fig. 11a SoC elaborated by builder, armed like
// examples/latency_insensitive_soc.cpp (trace session, registry, telemetry)
// plus a verify::Hub, with the profiler off. The seed drives the display
// sink's stall draws (20% stall rate).
// ---------------------------------------------------------------------------

constexpr Shape kSocShape{400, 8000, 500};
constexpr Shape kSocCheckShape{400, 2000, 500};
constexpr unsigned kSocSampleEvery = 16;  ///< bus cycles per telemetry tick

enum class Arming { kBare, kMonitors, kFull };

Time soc_base_period() {
  fifo::FifoConfig probe;
  probe.capacity = 8;
  probe.width = 16;
  return std::max(fifo::SyncGetSide::min_period(probe),
                  fifo::SyncPutSide::min_period(probe));
}

sim::TelemetryConfig soc_telemetry(Time bus_period) {
  sim::TelemetryConfig c;
  c.interval = kSocSampleEvery * bus_period;
  return c;
}

struct Soc {
  Soc(std::uint64_t seed, Arming arming, sim::KernelProfiler* prof,
      Tracer* tracer)
      : bus_period(soc_base_period() * 5 / 4),
        disp_period(soc_base_period() * 7 / 4),
        sim(seed),
        telemetry(soc_telemetry(bus_period)),
        design("soc"),
        tap(64) {
    if (arming == Arming::kFull) {
      obs.trace = &trace;
      obs.metrics = &registry;
      obs.telemetry = &telemetry;
    }
    obs.profiler = prof;
    if (arming == Arming::kFull || prof != nullptr) obs.arm(sim);
    if (arming != Arming::kBare) hub.arm(sim);
    if (arming == Arming::kFull) registry.bind(sim.report());

    const builder::DomainId bus_dom =
        design.domain("clk_bus", {bus_period, 4 * bus_period, 0.5, 0});
    disp_dom =
        design.domain("clk_display", {disp_period, 4 * disp_period, 0.5, 0});
    builder::SourceAttrs sensor_traffic;
    sensor_traffic.mask = 0xFFFF;
    sensor = design.source("sensor", builder::Design::async_out("out", 16),
                           sensor_traffic);
    const builder::NodeId glue = design.repeater("glue", bus_dom, 16);
    display = design.sink("display",
                          builder::Design::sync_in("in", disp_dom, 16), {0.2});
    builder::LinkOptions fuse;  // Fig. 14: 3 ARS + ASRS + 3 SRS
    fuse.capacity = 8;
    fuse.latency_left = 3;
    fuse.latency_right = 3;
    design.connect(sensor, "out", glue, "in", fuse, "fuse");
    builder::LinkOptions cross_opt;  // Fig. 11a: 1 SRS + MCRS + 2 SRS
    cross_opt.capacity = 8;
    cross_opt.latency_left = 1;
    cross_opt.latency_right = 2;
    cross = design.connect(glue, "out", display, "in", cross_opt, "cross");

    const double t0 = now_s();
    {
      Span s(tracer, "builder.elaborate");
      elab = builder::elaborate(sim, design);
    }
    elaborate_s = now_s() - t0;

    // Bursty asynchronous producer: 150 bus cycles on, 150 off.
    bfm::AsyncPutDriver& producer = *elab->node(sensor).async_put;
    toggle = [this, &producer] {
      const bool on = (bursts++ % 2) == 1;
      producer.set_enabled(on);
      if (on) producer.issue_one();
      sim.sched().after(150 * bus_period, [this] { toggle(); });
    };
    sim.sched().after(300 * bus_period, [this] { toggle(); });

    // The display sink consumes on a rising edge when its registered stop
    // was low and the link presents a valid word (bfm::RsSink).
    const builder::LiPort in = elab->edge(cross).tail.li;
    elab->clock(disp_dom).out().on_rise([this, in] {
      if (!in.stop->read() && in.valid->read()) {
        tap.get(sim.now(), in.data->read());
      }
    });
  }

  std::uint64_t items() const { return tap.items(); }

  /// Every latency_ps histogram in the registry, merged.
  metrics::Histogram latency() const {
    metrics::Histogram all(sim::latency_bounds());
    registry.visit([](const auto&, const auto&, const auto&) {},
                   [](const auto&, const auto&, const auto&) {},
                   [&all](const std::string&, const std::string& name,
                          const metrics::Histogram& h) {
                     if (name == "latency_ps") all.merge(h);
                   });
    return all;
  }

  std::uint64_t counter_sum(const std::string& name) const {
    std::uint64_t total = 0;
    registry.visit(
        [&](const std::string&, const std::string& n,
            const metrics::Counter& c) {
          if (n == name) total += c.value();
        },
        [](const auto&, const auto&, const auto&) {},
        [](const auto&, const auto&, const auto&) {});
    return total;
  }

  std::string fingerprint() const {
    return "sink:" + std::to_string(tap.items()) + ":" + hex(tap.order()) +
           " lat:" + hex(hist_hash(kFnvBasis, latency())) +
           " txn:" + std::to_string(trace.transactions()) +
           " samples:" + std::to_string(telemetry.samples());
  }

  void check(Result& out) const {
    const bfm::Scoreboard& sb = elab->scoreboard(display);
    out.check(sb.errors() == 0 && elab->total_order_violations() == 0,
              "fig14_soc: scoreboard/order errors");
    out.check(hub.total() == 0, "fig14_soc: " + std::to_string(hub.total()) +
                                    " monitor violations");
    out.check(tap.items() == elab->sink_received(display) && tap.items() > 0,
              "fig14_soc: sink tap disagrees with the display sink");
    out.check(sb.in_flight() < 64, "fig14_soc: items stuck in flight");
  }

  Time bus_period;
  Time disp_period;
  sim::Simulation sim;
  sim::TraceSession trace;
  metrics::Registry registry;
  sim::Telemetry telemetry;
  verify::Hub hub;
  sim::Observability obs;
  builder::Design design;
  builder::DomainId disp_dom = 0;
  builder::NodeId sensor = 0;
  builder::NodeId display = 0;
  builder::EdgeId cross = 0;
  std::unique_ptr<builder::Elaborated> elab;
  double elaborate_s = 0.0;
  std::uint64_t bursts = 0;
  std::function<void()> toggle;
  SinkTap tap;
};

/// Times one Telemetry::sample_now() call; returns seconds.
double timed_sample(sim::Telemetry& tel, Tracer* tracer, double& allocs_out) {
  const std::uint64_t a0 = allocs();
  const double t0 = now_s();
  {
    Span s(tracer, "telemetry.sample_now");
    tel.sample_now();
  }
  const double dt = now_s() - t0;
  allocs_out = static_cast<double>(allocs() - a0);
  return dt;
}

Episode soc_episode(std::uint64_t seed, const Shape& shape, Arming arming,
                    Tracer* tracer, Result& out) {
  Episode ep;
  const double t_start = now_s();
  sim::KernelProfiler prof;
  std::unique_ptr<Soc> d =
      std::make_unique<Soc>(seed, arming, tracer != nullptr ? &prof : nullptr,
                            tracer);
  Soc& s = *d;
  const bool full = arming == Arming::kFull;
  double early_allocs = 0.0;
  run_measured(s.sim, s.bus_period, shape, tracer, [&s] { return s.items(); },
               t_start, ep, [&] {
                 if (full) {
                   ep.sample_s_early =
                       timed_sample(s.telemetry, tracer, early_allocs);
                 }
               });
  double late_allocs = 0.0;
  if (full) {
    ep.sample_s_late = timed_sample(s.telemetry, tracer, late_allocs);
    ep.allocs_per_sample = 0.5 * (early_allocs + late_allocs);
  }
  if (full) {
    std::uint64_t bytes = 0;
    {
      Span sp(tracer, "export.report");
      ep.report_s = time_render(
          [&s] { return s.sim.report().to_json().size(); }, 1, 1, bytes);
    }
    ep.export_bytes += bytes;
    {
      Span sp(tracer, "export.timeline");
      ep.timeline_s =
          time_render([&s] { return s.telemetry.to_jsonl().size(); }, 1, 1,
                      bytes);
    }
    ep.export_bytes += bytes;
    {
      Span sp(tracer, "export.trace");
      ep.trace_s = time_render([&s] { return s.trace.to_json().size(); }, 1,
                               1, bytes);
    }
    ep.export_bytes += bytes;
    ep.export_s = ep.report_s + ep.timeline_s + ep.trace_s;
    ep.samples = s.telemetry.samples();
    ep.points = s.telemetry.store().total_points();
    const metrics::Histogram lat = s.latency();
    ep.lat_p50 = lat.percentile(0.50);
    ep.lat_p99 = lat.percentile(0.99);
    const double stalls = static_cast<double>(s.counter_sum("stalls"));
    const double gets = static_cast<double>(s.counter_sum("gets"));
    ep.stall_duty = stalls / std::max(1.0, stalls + gets);
    ep.crossings = s.counter_sum("sync_crossings");
    ep.fingerprint = s.fingerprint();
  }
  ep.kernel = s.sim.sched().stats();
  ep.elaborate_s = s.elaborate_s;
  ep.elements = s.elab->inserted().size();
  ep.violations = s.hub.total();
  ep.sb_errors = s.elab->scoreboard(s.display).errors();
  s.check(out);
  {
    Span sp(tracer, "bench.teardown");
    d.reset();
  }
  ep.total_s = now_s() - t_start;
  return ep;
}

}  // namespace

void run_fig3_fifos(const Args& a, Tracer* tracer, Result& out) {
  std::vector<std::pair<std::uint64_t, std::string>> pinned;
  for (std::uint64_t seed : kPinnedSeeds) {
    pinned.emplace_back(seed,
                        fig3_episode(seed, kFig3CheckShape, nullptr, out)
                            .fingerprint);
  }
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  loop_episodes(a.seconds, tracer != nullptr ? 2 : 1,
                tracer != nullptr ? 4 : 3, [&](unsigned i) {
    // The traced run alternates untraced and traced episodes so the
    // tracing overhead is measured on the same host state.
    const bool trace_this = tracer != nullptr && i % 2 == 1;
    if (trace_this) {
      Span root(tracer, "bench.episode");
      traced.push_back(fig3_episode(a.seed, kFig3Shape, tracer, out));
    } else {
      plain.push_back(fig3_episode(a.seed, kFig3Shape, nullptr, out));
    }
  });
  std::vector<Episode> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  check_fingerprints("fig3_fifos", all, pinned, out);
  if (tracer == nullptr) {
    report_e2e(plain, out);
    return;
  }
  report_kernel_layers(plain, out);
  report_gates(tracer, out);
  report_profile(traced, out);
  report_trace_overhead(plain, traced, out);
}

void run_fig14_soc(const Args& a, Tracer* tracer, Result& out) {
  std::vector<std::pair<std::uint64_t, std::string>> pinned;
  for (std::uint64_t seed : kPinnedSeeds) {
    pinned.emplace_back(
        seed,
        soc_episode(seed, kSocCheckShape, Arming::kFull, nullptr, out)
            .fingerprint);
  }
  std::vector<Episode> full;
  std::vector<Episode> traced;
  std::vector<Episode> bare;
  std::vector<Episode> monitors;
  // The traced run rotates four variants: fully armed untraced (the
  // end-to-end configuration), fully armed traced, bare, and monitors only
  // -- the last two attribute the armed cost to verify and to the
  // metrics/telemetry/trace sinks.
  loop_episodes(a.seconds, tracer != nullptr ? 4 : 1,
                tracer != nullptr ? 8 : 3, [&](unsigned i) {
    if (tracer == nullptr || i % 4 == 0) {
      full.push_back(soc_episode(a.seed, kSocShape, Arming::kFull, nullptr, out));
    } else if (i % 4 == 1) {
      Span root(tracer, "bench.episode");
      traced.push_back(
          soc_episode(a.seed, kSocShape, Arming::kFull, tracer, out));
    } else if (i % 4 == 2) {
      bare.push_back(soc_episode(a.seed, kSocShape, Arming::kBare, nullptr, out));
    } else {
      monitors.push_back(
          soc_episode(a.seed, kSocShape, Arming::kMonitors, nullptr, out));
    }
  });
  std::vector<Episode> armed = full;
  armed.insert(armed.end(), traced.begin(), traced.end());
  check_fingerprints("fig14_soc", armed, pinned, out);
  for (const std::vector<Episode>* v : {&bare, &monitors}) {
    for (const Episode& e : *v) {
      out.check(e.items == full.front().items,
                "fig14_soc: sink item count changes with the arming");
    }
  }
  if (tracer == nullptr) {
    report_e2e(full, out);
    return;
  }
  report_kernel_layers(full, out);
  report_gates(tracer, out);
  const Episode& f0 = full.front();
  out.layer("builder.elaborate_ms",
            median_of(full, [](const Episode& e) { return e.elaborate_s; }) * 1e3,
            "ms");
  out.layer("builder.elements", static_cast<double>(f0.elements), "count");
  out.layer("verify.violations", static_cast<double>(f0.violations), "count");
  const double r_bare = cycle_rate(bare);
  const double r_mon = cycle_rate(monitors);
  const double r_full = cycle_rate(full);
  out.layer("verify.armed_overhead_pct", (r_bare / r_mon - 1.0) * 100.0, "%");
  out.layer("telemetry.armed_overhead_pct", (r_mon / r_full - 1.0) * 100.0,
            "%");
  out.layer("telemetry.sample_us_early",
            median_of(full, [](const Episode& e) { return e.sample_s_early; }) *
                1e6,
            "us");
  out.layer("telemetry.sample_us_late",
            median_of(full, [](const Episode& e) { return e.sample_s_late; }) *
                1e6,
            "us");
  out.layer("telemetry.allocs_per_sample", f0.allocs_per_sample, "count");
  out.layer("telemetry.samples", static_cast<double>(f0.samples), "count");
  out.layer("telemetry.points", static_cast<double>(f0.points), "count");
  out.layer("export.report_ms",
            median_of(full, [](const Episode& e) { return e.report_s; }) * 1e3,
            "ms");
  out.layer("export.timeline_ms",
            median_of(full, [](const Episode& e) { return e.timeline_s; }) * 1e3,
            "ms");
  out.layer("export.trace_ms",
            median_of(full, [](const Episode& e) { return e.trace_s; }) * 1e3,
            "ms");
  out.layer("export.bytes", static_cast<double>(f0.export_bytes), "bytes");
  report_profile(traced, out);
  report_trace_overhead(full, traced, out);
  // Monitors run inside kernel events, where no span reaches: their share
  // of an armed episode comes from the monitors-only vs bare comparison.
  out.layer("self_share.verify", std::max(0.0, r_full / r_mon - r_full / r_bare),
            "ratio");
}

}  // namespace perfbench
