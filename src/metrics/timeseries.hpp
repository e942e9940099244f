// Append-only, bounded-memory time series for in-run telemetry sampling.
//
// A TimeSeriesStore holds named series of (sim-time, value) points, filled
// by the sim::Telemetry sampler (sim/telemetry.hpp) once per sampling tick.
// Memory is bounded per series: when a series exceeds its point cap it is
// *decimated* -- every other retained point is dropped and the series'
// stride doubles, so from then on only every stride-th appended point is
// kept. The retained set is a pure function of the append sequence (no
// clocks, no RNG), which keeps campaign timelines bit-identical across
// worker counts.
//
// Exports:
//   to_jsonl()    one JSON object per line, `{"t": <ps>, "s": "<series>",
//                 "v": <value>}`, ordered by (time, series name) -- the
//                 format tools/mts_timeline consumes.
//   to_csv()      long format `t_ps,series,value`, same order.
//   perfetto_events()  Chrome trace-event counter samples (`"ph": "C"`,
//                 one counter track per series under a dedicated
//                 "telemetry" process) for merging into a TraceSession
//                 trace.json (sim/trace_session.hpp).
//
// merge() appends another store's points series-by-series. Append order is
// caller-visible in the exports, so reductions that must be
// placement-independent (the campaign engine) fold per-run stores in RUN
// INDEX order -- the same contract as Report::merge.
//
// The header is cheap to include (used by the header-only registry's
// sampling visitor); the export bodies live in timeseries.cpp, compiled
// into mts_sim so sim::Telemetry can link them without an mts_metrics
// edge (mts_metrics already links mts_sim; the reverse edge would cycle).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/json_writer.hpp"
#include "sim/time.hpp"

namespace mts::metrics {

/// One sampled point of one series.
struct TimePoint {
  sim::Time t = 0;  ///< simulation time, picoseconds
  double v = 0.0;
};

/// A single bounded series. Appends must be monotone in time (the sampler
/// guarantees this); violations are tolerated but export order is by the
/// stored sequence, not re-sorted.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_points) : max_points_(max_points) {}

  /// Records (t, v) subject to the current stride: after d decimations only
  /// every 2^d-th appended point is retained.
  void append(sim::Time t, double v) {
    if (phase_++ % stride_ != 0) return;
    pts_.push_back(TimePoint{t, v});
    if (max_points_ >= 2 && pts_.size() > max_points_) decimate();
  }

  /// Retained points, oldest first.
  const std::vector<TimePoint>& points() const noexcept { return pts_; }
  std::size_t size() const noexcept { return pts_.size(); }
  /// Points ever appended (including those dropped by the stride).
  std::size_t appended() const noexcept { return phase_; }
  /// Current keep-every-Nth stride (1 until the first decimation).
  std::size_t stride() const noexcept { return stride_; }

  double last() const noexcept { return pts_.empty() ? 0.0 : pts_.back().v; }

  /// Campaign reduction: appends `other`'s retained points verbatim (no
  /// re-striding). Fold stores in run-index order for placement-independent
  /// artifacts.
  void merge(const TimeSeries& other) {
    pts_.insert(pts_.end(), other.pts_.begin(), other.pts_.end());
    phase_ += other.phase_;
  }

  /// Checkpoint/wire seam (src/campaignd): replaces the retained points and
  /// appended count with an exact snapshot previously captured through
  /// points()/appended(). merge() reads only those two, so a restored
  /// series folds byte-identically to the original; the stride resets to 1
  /// (snapshots are fold inputs, not live sampling targets).
  void restore(std::vector<TimePoint> pts, std::size_t appended) {
    pts_ = std::move(pts);
    phase_ = appended;
    stride_ = 1;
  }

 private:
  /// Drops every other retained point (keeps indices 0, 2, 4, ...) and
  /// doubles the stride. phase_ keeps its parity so future appends stay
  /// aligned with the retained grid.
  void decimate() {
    std::size_t w = 0;
    for (std::size_t r = 0; r < pts_.size(); r += 2) pts_[w++] = pts_[r];
    pts_.resize(w);
    stride_ *= 2;
  }

  std::vector<TimePoint> pts_;
  std::size_t max_points_;
  std::size_t stride_ = 1;
  std::size_t phase_ = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t max_points_per_series = 4096)
      : max_points_(max_points_per_series) {}

  /// Resolves (or creates) the series named `name`. References are stable
  /// for the store's lifetime (std::map nodes never move).
  TimeSeries& series(const std::string& name) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, TimeSeries(max_points_)).first;
    }
    return it->second;
  }

  /// Shorthand: series(name).append(t, v).
  void append(const std::string& name, sim::Time t, double v) {
    series(name).append(t, v);
  }

  const TimeSeries* find(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
  }

  std::size_t series_count() const noexcept { return series_.size(); }
  std::size_t total_points() const noexcept {
    std::size_t n = 0;
    for (const auto& [k, s] : series_) n += s.size();
    return n;
  }
  bool empty() const noexcept { return series_.empty(); }

  /// Series names, sorted (map order).
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [k, s] : series_) out.push_back(k);
    return out;
  }

  /// Drops every series (campaign per-run reuse hook).
  void clear() { series_.clear(); }

  /// Campaign reduction: series-wise TimeSeries::merge, creating absent
  /// series. Fold in run-index order (see header comment).
  void merge(const TimeSeriesStore& other) {
    for (const auto& [name, s] : other.series_) series(name).merge(s);
  }

  // -- exports (timeseries.cpp) ---------------------------------------------

  /// `{"t": <ps>, "s": "<name>", "v": <value>}` per line, ordered by
  /// (t, name).
  std::string to_jsonl() const;

  /// `t_ps,series,value` long-format CSV, same order as to_jsonl().
  std::string to_csv() const;

  /// Chrome trace-event counter samples (`"ph": "C"`) for every point, one
  /// counter track per series, grouped under a dedicated process (`pid`):
  /// appended to `w`'s open traceEvents array as a process_name metadata
  /// event followed by one event per point. Nothing when the store is empty.
  void perfetto_events(sim::JsonWriter& w, int pid = 2) const;

  /// Writes to_jsonl() to `path`; returns false (no throw) on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::map<std::string, TimeSeries> series_;
  std::size_t max_points_;
};

}  // namespace mts::metrics
