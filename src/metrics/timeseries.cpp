// TimeSeriesStore export bodies. Compiled into mts_sim (see the header
// comment in timeseries.hpp for why not mts_metrics).
#include "metrics/timeseries.hpp"

#include <algorithm>
#include <fstream>

#include "sim/json_writer.hpp"

namespace mts::metrics {

namespace {

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
  std::string out;
  sim::JsonWriter w(out);
  for (const FlatPoint& r : flatten(series_)) {
    w.begin_object().key("t").u64(r.t).key("s").str(*r.name)
        .key("v").value(r.v).end_object();
    out += '\n';
  }
  return out;
}

std::string TimeSeriesStore::to_csv() const {
  std::string out = "t_ps,series,value\n";
  sim::JsonWriter w(out);
  for (const FlatPoint& r : flatten(series_)) {
    w.u64(r.t);
    out += ',';
    out += *r.name;
    out += ',';
    w.value(r.v);
    out += '\n';
  }
  return out;
}

void TimeSeriesStore::perfetto_events(sim::JsonWriter& w, int pid) const {
  if (series_.empty()) return;
  w.begin_object().key("name").str("process_name").key("ph").str("M")
      .key("pid").i64(pid).key("args").begin_object()
      .key("name").str("telemetry").end_object().end_object();
  for (const FlatPoint& r : flatten(series_)) {
    w.begin_object().key("name").str(*r.name).key("ph").str("C")
        .key("pid").i64(pid).key("ts").ts_us(r.t).key("args").begin_object()
        .key("value").value(r.v).end_object().end_object();
  }
}

bool TimeSeriesStore::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_jsonl();
  return static_cast<bool>(out);
}

}  // namespace mts::metrics
