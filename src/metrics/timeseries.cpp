// TimeSeriesStore export bodies. Compiled into mts_sim (see the header
// comment in timeseries.hpp for why not mts_metrics).
#include "metrics/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/report.hpp"
#include "sim/trace_session.hpp"

namespace mts::metrics {

namespace {

/// Finite, locale-independent decimal; integral values print without a
/// fraction so counters stay exact and artifacts diff cleanly.
std::string fmt_value(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct FlatPoint {
  sim::Time t;
  const std::string* name;
  double v;
};

}  // namespace

/// Flattens every series to (t, name, value) rows ordered by (t, name).
/// Series iterate in map (name) order, so a stable sort on time alone
/// yields the (t, name) order deterministically.
static std::vector<FlatPoint> flatten(
    const std::map<std::string, TimeSeries>& series) {
  std::vector<FlatPoint> rows;
  for (const auto& [name, s] : series) {
    for (const TimePoint& p : s.points()) {
      rows.push_back(FlatPoint{p.t, &name, p.v});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const FlatPoint& a, const FlatPoint& b) {
                     return a.t < b.t;
                   });
  return rows;
}

std::string TimeSeriesStore::to_jsonl() const {
  std::ostringstream os;
  for (const FlatPoint& r : flatten(series_)) {
    os << "{\"t\": " << r.t << ", \"s\": \"" << sim::json_escape(*r.name)
       << "\", \"v\": " << fmt_value(r.v) << "}\n";
  }
  return os.str();
}

std::string TimeSeriesStore::to_csv() const {
  std::ostringstream os;
  os << "t_ps,series,value\n";
  for (const FlatPoint& r : flatten(series_)) {
    os << r.t << "," << *r.name << "," << fmt_value(r.v) << "\n";
  }
  return os.str();
}

std::string TimeSeriesStore::perfetto_events(int pid) const {
  if (series_.empty()) return "";
  std::ostringstream os;
  os << ",\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"telemetry\"}}";
  for (const FlatPoint& r : flatten(series_)) {
    os << ",\n  {\"name\": \"" << sim::json_escape(*r.name)
       << "\", \"ph\": \"C\", \"pid\": " << pid
       << ", \"ts\": " << sim::trace_ts_us(r.t)
       << ", \"args\": {\"value\": " << fmt_value(r.v) << "}}";
  }
  return os.str();
}

bool TimeSeriesStore::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_jsonl();
  return static_cast<bool>(out);
}

}  // namespace mts::metrics
