// Golden timeline bytes: FNV-1a hashes of Telemetry::to_jsonl() and
// to_csv() for two armed runs, pinned so any change to the sampler's
// internals (series resolution, rollups, histogram windows) must reproduce
// every exported point exactly.
//
//   * the Fig. 14 -> Fig. 11a SoC elaborated by the builder, with a
//     metrics::Registry, a verify::Hub and the sampler armed (registry
//     counters, gauges and windowed histogram percentiles, per-station
//     sources and domain rollups, kernel and violation series), sampled
//     often enough under a small point cap that the long series decimate;
//   * the backpressure storm of examples/backpressure_storm.cpp (4 SRS ->
//     MCRS -> 4 SRS with a burst-stalling sink), the same run that writes
//     storm_timeline.jsonl.
//
// The same SoC run, with a TraceSession armed as well and the profiler off,
// also pins the bytes of every document it exports: the report (with the
// registry's metrics section), the Chrome trace (with the telemetry counter
// tracks), and the builder's Design and Elaborated JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "bfm/bfm.hpp"
#include "builder/builder.hpp"
#include "fifo/interface_sides.hpp"
#include "lip/lip.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

namespace mts {
namespace {

using sim::Time;

constexpr std::uint64_t kSocJsonlHash = 0x6672ea4ecf4b3ecaull;
constexpr std::uint64_t kSocCsvHash = 0x105431f312c4ede6ull;
constexpr std::uint64_t kStormJsonlHash = 0xb7cfc10231a3ed3dull;
constexpr std::uint64_t kStormCsvHash = 0x458b58321ac774b9ull;
constexpr std::uint64_t kSocReportHash = 0xa71cb97f21a3535dull;
constexpr std::uint64_t kSocTraceHash = 0x25a03b5e5d61c02dull;
constexpr std::uint64_t kSocDesignHash = 0x3619520024488626ull;
constexpr std::uint64_t kSocElaboratedHash = 0x70143d961d84e198ull;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Timeline {
  std::string jsonl;
  std::string csv;
  std::uint64_t samples = 0;
  std::size_t series = 0;
};

/// The documents the armed SoC run exports besides its timeline.
struct SocDocuments {
  std::string report;
  std::string trace;
  std::string design;
  std::string elaborated;
};

/// With `docs`, a TraceSession is armed too and the registry is bound to
/// the report, and the run's exported documents are captured there.
Timeline armed_soc_timeline(SocDocuments* docs = nullptr) {
  fifo::FifoConfig probe;
  probe.capacity = 8;
  probe.width = 16;
  const Time base = std::max(fifo::SyncGetSide::min_period(probe),
                             fifo::SyncPutSide::min_period(probe));
  const Time bus_period = base * 5 / 4;
  const Time disp_period = base * 7 / 4;

  sim::Simulation sim(11);
  metrics::Registry registry;
  verify::Hub hub;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 4 * bus_period;
  tcfg.max_points = 128;  // 500 samples: every series decimates twice
  sim::Telemetry telemetry(tcfg);
  sim::TraceSession trace;
  sim::Observability obs;
  obs.metrics = &registry;
  obs.telemetry = &telemetry;
  if (docs != nullptr) {
    obs.trace = &trace;
    registry.bind(sim.report());
  }
  obs.arm(sim);
  hub.arm(sim);

  builder::Design d("soc");
  const builder::DomainId bus_dom =
      d.domain("clk_bus", {bus_period, 4 * bus_period, 0.5, 0});
  const builder::DomainId disp_dom =
      d.domain("clk_display", {disp_period, 4 * disp_period, 0.5, 0});
  const builder::NodeId sensor = d.source(
      "sensor", builder::Design::async_out("out", 16), {1.0, 0, 0xFFFF});
  const builder::NodeId glue = d.repeater("glue", bus_dom, 16);
  const builder::NodeId display =
      d.sink("display", builder::Design::sync_in("in", disp_dom, 16), {0.2});
  builder::LinkOptions fuse;  // Fig. 14: 3 ARS + ASRS + 3 SRS
  fuse.capacity = 8;
  fuse.latency_left = 3;
  fuse.latency_right = 3;
  d.connect(sensor, "out", glue, "in", fuse, "fuse");
  builder::LinkOptions cross;  // Fig. 11a: 1 SRS + MCRS + 2 SRS
  cross.capacity = 8;
  cross.latency_left = 1;
  cross.latency_right = 2;
  d.connect(glue, "out", display, "in", cross, "cross");
  auto elab = builder::elaborate(sim, d);

  sim.run_until(4 * bus_period + 2000 * bus_period);
  EXPECT_EQ(elab->total_order_violations(), 0u);
  EXPECT_EQ(hub.total(), 0u);
  EXPECT_GT(elab->sink_received(display), 500u);
  if (docs != nullptr) {
    *docs = {sim.report().to_json(), trace.to_json(), d.to_json(),
             elab->to_json()};
  }
  return {telemetry.to_jsonl(), telemetry.to_csv(), telemetry.samples(),
          telemetry.store().series_count()};
}

Timeline storm_timeline() {
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;

  sim::Simulation sim(7);
  const Time pp = fifo::SyncPutSide::min_period(cfg) * 5 / 4;
  const Time gp = fifo::SyncGetSide::min_period(cfg) * 5 / 4;
  sim::TraceSession trace;
  metrics::Registry registry;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 2 * pp;
  tcfg.max_points = 8192;
  sim::Telemetry telemetry(tcfg);
  sim::Observability obs;
  obs.trace = &trace;
  obs.metrics = &registry;
  obs.telemetry = &telemetry;
  obs.arm(sim);

  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 997, 0.5, 0});
  lip::MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), 4, 4);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                    link.stop_out(), cfg.dm, 1.0, 0xFF, sb);
  bfm::RsBurstSink sink(cg.out(), link.data_out(), link.valid_out(),
                        link.stop_in(), cfg.dm, /*warmup=*/100, /*period=*/40,
                        /*burst=*/15, sb);
  telemetry.add_source("sink", "cg", "stop",
                       [&sink] { return sink.stalling() ? 1.0 : 0.0; });

  sim.run_until(4 * pp + 800 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_GT(sink.stall_cycles(), 200u);
  return {telemetry.to_jsonl(), telemetry.to_csv(), telemetry.samples(),
          telemetry.store().series_count()};
}

TEST(TimelineGolden, ArmedFig14SocTimelineBytesArePinned) {
  const Timeline t = armed_soc_timeline();
  EXPECT_EQ(t.samples, 501u);
  EXPECT_GT(t.series, 100u);
  EXPECT_EQ(fnv1a(t.jsonl), kSocJsonlHash)
      << std::hex << "jsonl 0x" << fnv1a(t.jsonl);
  EXPECT_EQ(fnv1a(t.csv), kSocCsvHash) << std::hex << "csv 0x" << fnv1a(t.csv);
}

TEST(TimelineGolden, ArmedFig14SocDocumentBytesArePinned) {
  SocDocuments docs;
  armed_soc_timeline(&docs);
  EXPECT_NE(docs.trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(docs.report.find("\"metrics\": "), std::string::npos);
  EXPECT_EQ(fnv1a(docs.report), kSocReportHash)
      << std::hex << "report 0x" << fnv1a(docs.report);
  EXPECT_EQ(fnv1a(docs.trace), kSocTraceHash)
      << std::hex << "trace 0x" << fnv1a(docs.trace);
  EXPECT_EQ(fnv1a(docs.design), kSocDesignHash)
      << std::hex << "design 0x" << fnv1a(docs.design);
  EXPECT_EQ(fnv1a(docs.elaborated), kSocElaboratedHash)
      << std::hex << "elaborated 0x" << fnv1a(docs.elaborated);
}

TEST(TimelineGolden, BackpressureStormTimelineBytesArePinned) {
  const Timeline t = storm_timeline();
  EXPECT_GT(t.samples, 100u);
  EXPECT_EQ(fnv1a(t.jsonl), kStormJsonlHash)
      << std::hex << "jsonl 0x" << fnv1a(t.jsonl);
  EXPECT_EQ(fnv1a(t.csv), kStormCsvHash)
      << std::hex << "csv 0x" << fnv1a(t.csv);
}

}  // namespace
}  // namespace mts
