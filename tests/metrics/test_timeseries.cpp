#include "metrics/timeseries.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

namespace mts::metrics {
namespace {

/// The store's perfetto_events() appended into a fresh traceEvents-style
/// array.
std::string perfetto_array(const TimeSeriesStore& st) {
  std::string out;
  sim::JsonWriter w(out);
  w.begin_array(sim::JsonWriter::Layout::kLines);
  st.perfetto_events(w);
  w.end_array();
  return out;
}

TEST(TimeSeries, AppendRetainsInOrderBelowCap) {
  TimeSeries s(8);
  for (sim::Time t = 0; t < 5; ++t) {
    s.append(t * 10, static_cast<double>(t));
  }
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s.stride(), 1u);
  EXPECT_EQ(s.appended(), 5u);
  EXPECT_EQ(s.points().front().t, 0u);
  EXPECT_EQ(s.points().back().t, 40u);
  EXPECT_DOUBLE_EQ(s.last(), 4.0);
}

TEST(TimeSeries, DecimationHalvesRetainedAndDoublesStride) {
  TimeSeries s(4);
  for (sim::Time t = 0; t < 5; ++t) s.append(t, static_cast<double>(t));
  // 5th append exceeded the cap of 4: indices 0,2,4 survive, stride -> 2.
  EXPECT_EQ(s.stride(), 2u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points()[0].t, 0u);
  EXPECT_EQ(s.points()[1].t, 2u);
  EXPECT_EQ(s.points()[2].t, 4u);
  // Post-decimation appends keep only every 2nd point (phase parity).
  s.append(5, 5.0);  // phase 5, odd: dropped
  s.append(6, 6.0);  // phase 6, even: kept
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.points().back().t, 6u);
}

TEST(TimeSeries, RetainedSetIsPureFunctionOfAppendSequence) {
  // Two series fed the same sequence retain identical points regardless of
  // how many decimations fired in between -- the campaign determinism
  // contract.
  TimeSeries a(16);
  TimeSeries b(16);
  for (sim::Time t = 0; t < 1000; ++t) {
    a.append(t, static_cast<double>(t) * 0.5);
    b.append(t, static_cast<double>(t) * 0.5);
  }
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LE(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].t, b.points()[i].t);
    EXPECT_DOUBLE_EQ(a.points()[i].v, b.points()[i].v);
  }
  EXPECT_EQ(a.appended(), 1000u);
}

TEST(TimeSeries, ZeroAndOneCapsNeverDecimate) {
  // max_points < 2 disables the cap (decimation of a 1-point series would
  // never converge); the series just grows.
  TimeSeries s(1);
  for (sim::Time t = 0; t < 10; ++t) s.append(t, 1.0);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.stride(), 1u);
}

TEST(TimeSeriesStore, SeriesResolveOrCreateAndNamesSorted) {
  TimeSeriesStore st(64);
  st.append("zeta", 1, 1.0);
  st.append("alpha", 2, 2.0);
  st.append("alpha", 3, 3.0);
  EXPECT_EQ(st.series_count(), 2u);
  EXPECT_EQ(st.total_points(), 3u);
  const std::vector<std::string> n = st.names();
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], "alpha");  // map order: sorted
  EXPECT_EQ(n[1], "zeta");
  ASSERT_NE(st.find("alpha"), nullptr);
  EXPECT_EQ(st.find("alpha")->size(), 2u);
  EXPECT_EQ(st.find("missing"), nullptr);
  st.clear();
  EXPECT_TRUE(st.empty());
}

TEST(TimeSeriesStore, JsonlOrderedByTimeThenName) {
  TimeSeriesStore st(64);
  st.append("b", 20, 2.0);
  st.append("a", 20, 1.0);
  st.append("a", 10, 0.5);
  const std::string jl = st.to_jsonl();
  const std::size_t p_a10 = jl.find("\"t\": 10, \"s\": \"a\"");
  const std::size_t p_a20 = jl.find("\"t\": 20, \"s\": \"a\"");
  const std::size_t p_b20 = jl.find("\"t\": 20, \"s\": \"b\"");
  ASSERT_NE(p_a10, std::string::npos);
  ASSERT_NE(p_a20, std::string::npos);
  ASSERT_NE(p_b20, std::string::npos);
  EXPECT_LT(p_a10, p_a20);
  EXPECT_LT(p_a20, p_b20);  // same t: name order breaks the tie
}

TEST(TimeSeriesStore, CsvLongFormatWithHeader) {
  TimeSeriesStore st(64);
  st.append("occ", 100, 3.0);
  const std::string csv = st.to_csv();
  EXPECT_NE(csv.find("t_ps,series,value"), std::string::npos);
  EXPECT_NE(csv.find("100,occ,3"), std::string::npos);
}

TEST(TimeSeriesStore, PerfettoEventsAreCounterPhaseUnderTelemetryProcess) {
  TimeSeriesStore st(64);
  st.append("dut.occupancy", 1000, 4.0);
  const std::string ev = perfetto_array(st);
  EXPECT_NE(ev.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(ev.find("process_name"), std::string::npos);
  EXPECT_NE(ev.find("telemetry"), std::string::npos);
  EXPECT_NE(ev.find("dut.occupancy"), std::string::npos);
  // Splice contract: the events are elements of the writer's open
  // traceEvents array, one per line.
  EXPECT_EQ(ev.substr(0, 5), "[\n  {");
  EXPECT_EQ(ev.substr(ev.size() - 3), "}\n]");
}

TEST(TimeSeriesStore, EmptyStoreExportsAreEmpty) {
  TimeSeriesStore st(64);
  EXPECT_TRUE(st.to_jsonl().empty());
  EXPECT_EQ(perfetto_array(st), "[]");
}

TEST(TimeSeriesStore, MergeCreatesAbsentSeriesAndAppends) {
  TimeSeriesStore a(64);
  a.append("x", 1, 1.0);
  TimeSeriesStore b(64);
  b.append("x", 2, 2.0);
  b.append("y", 3, 3.0);
  a.merge(b);
  EXPECT_EQ(a.series_count(), 2u);
  ASSERT_NE(a.find("x"), nullptr);
  EXPECT_EQ(a.find("x")->size(), 2u);
  EXPECT_EQ(a.find("x")->points()[1].t, 2u);
  ASSERT_NE(a.find("y"), nullptr);
}

TEST(TimeSeriesStore, IndexOrderedFoldIsIndependentOfProducer) {
  // The campaign engine's contract: per-run stores folded in RUN INDEX
  // order yield a byte-identical export no matter which worker produced
  // which store. Model two placements of 4 runs onto workers; the fold
  // reads the same run-indexed array either way.
  auto make_run = [](std::size_t idx) {
    TimeSeriesStore st(64);
    for (sim::Time t = 0; t < 3; ++t) {
      st.append("occ", idx * 100 + t, static_cast<double>(idx));
    }
    return st;
  };
  // Placement A: runs completed in order 0,1,2,3. Placement B: 3,1,0,2.
  std::vector<TimeSeriesStore> runs_a;
  std::vector<TimeSeriesStore> runs_b(4, TimeSeriesStore(64));
  for (std::size_t i = 0; i < 4; ++i) runs_a.push_back(make_run(i));
  for (std::size_t i : {3u, 1u, 0u, 2u}) runs_b[i] = make_run(i);

  TimeSeriesStore fold_a(64);
  TimeSeriesStore fold_b(64);
  for (std::size_t i = 0; i < 4; ++i) fold_a.merge(runs_a[i]);
  for (std::size_t i = 0; i < 4; ++i) fold_b.merge(runs_b[i]);
  EXPECT_EQ(fold_a.to_jsonl(), fold_b.to_jsonl());
  EXPECT_EQ(fold_a.to_csv(), fold_b.to_csv());
}

}  // namespace
}  // namespace mts::metrics
