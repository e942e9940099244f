// Backpressure storm on a latency-insensitive relay chain, watched live
// through the time-series telemetry sampler.
//
// A full-rate producer feeds a Fig. 11a mixed-clock link (4 SRS + MCRS +
// 4 SRS); the consumer is a DETERMINISTIC bursty sink that slams stop high
// for 15 of every 40 cycles once the pipeline is warm. Each storm
// back-pressures the whole chain: the relay stations' stall duty jumps to
// 1.0 link-segment by link-segment (upstream of the sink first), occupancy
// piles up toward capacity, and when the storm clears the chain drains in
// reverse order -- the paper's stop/valid protocol doing its job with zero
// packet loss.
//
// The telemetry sampler records exactly that movie: per-station
// `.occupancy` / `.stall_duty` / `.in_flight` series plus the sink's own
// stop line, merged as Perfetto counter tracks into storm_trace.json (open
// in https://ui.perfetto.dev -- the "telemetry" process rides below the
// transaction spans) and exported as storm_timeline.jsonl for the
// mts_timeline CLI:
//
//   $ ./example_backpressure_storm
//   $ mts_timeline storm_timeline.jsonl --series stall_duty
//
// reproduce.sh copies both artifacts into out/ as the backpressure-
// timeline figure.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "lip/lip.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sim/trace_session.hpp"
#include "sync/clock.hpp"

int main() {
  using namespace mts;
  using sim::Time;

  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;

  sim::Simulation sim(7);

  // Observability armed before any component exists: trace spans +
  // metrics + the sampler (one sample per producer cycle batch).
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

  // The sink's own stop line as a telemetry source: the storm generator's
  // duty cycle, to line up against the stations' stall_duty tracks.
  telemetry.add_source("sink", "cg", "stop",
                       [&sink] { return sink.stalling() ? 1.0 : 0.0; });

  const unsigned cycles = 800;
  sim.run_until(4 * pp + cycles * pp);

  std::printf("backpressure storm: 4 SRS -> MCRS -> 4 SRS, full-rate "
              "producer,\nsink slams stop for 15/40 cycles after cycle "
              "100\n");
  std::printf("  packets received   : %llu (order violations %llu)\n",
              static_cast<unsigned long long>(sink.received()),
              static_cast<unsigned long long>(sb.errors()));
  std::printf("  sink stall cycles  : %llu\n",
              static_cast<unsigned long long>(sink.stall_cycles()));
  std::printf("  telemetry          : %llu samples, %llu series\n",
              static_cast<unsigned long long>(telemetry.samples()),
              static_cast<unsigned long long>(
                  telemetry.store().series_count()));

  trace.write_json("storm_trace.json");
  telemetry.write_jsonl("storm_timeline.jsonl");
  std::printf("  wrote storm_trace.json (%llu counter points) and "
              "storm_timeline.jsonl\n",
              static_cast<unsigned long long>(
                  telemetry.store().total_points()));

  // The storm must actually show up in the telemetry: some station's stall
  // duty saturates during bursts, occupancy tracks exist, and the sink's
  // stop series toggles.
  double max_stall_duty = 0.0;
  std::size_t occupancy_series = 0;
  for (const std::string& name : telemetry.store().names()) {
    const metrics::TimeSeries* s = telemetry.store().find(name);
    if (name.find(".stall_duty") != std::string::npos) {
      for (const metrics::TimePoint& p : s->points()) {
        max_stall_duty = std::max(max_stall_duty, p.v);
      }
    }
    if (name.find(".occupancy") != std::string::npos) ++occupancy_series;
  }
  const metrics::TimeSeries* stop_series = telemetry.store().find("sink.stop");
  const bool storm_seen = max_stall_duty > 0.5 && occupancy_series >= 2 &&
                          stop_series != nullptr &&
                          stop_series->last() >= 0.0;

  const bool ok = sb.errors() == 0 && sink.received() > 200 &&
                  sink.stall_cycles() > 200 && telemetry.samples() > 100 &&
                  storm_seen;
  std::printf("  max stall duty %.2f over %zu occupancy tracks -> %s\n",
              max_stall_duty, occupancy_series, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
