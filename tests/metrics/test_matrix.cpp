// Tests of the extension experiments completing the 2x2 interface matrix.
#include <gtest/gtest.h>

#include <string>

#include "metrics/experiments.hpp"
#include "metrics/table.hpp"

namespace mts::metrics {
namespace {

fifo::FifoConfig cfg_of(unsigned capacity, unsigned width) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return cfg;
}

TEST(MatrixExtension, SyncAsyncThroughputValidates) {
  const ThroughputRow row = throughput_sync_async(cfg_of(4, 8), 600);
  EXPECT_TRUE(row.validated);
  // The synchronous put side matches the mixed-clock put (same half).
  const ThroughputRow mc = throughput_mixed_clock(cfg_of(4, 8), 300);
  EXPECT_DOUBLE_EQ(row.put, mc.put);
  // The asynchronous get side is slower than the sync put.
  EXPECT_LT(row.get, row.put);
  EXPECT_GT(row.get, 0.0);
}

TEST(MatrixExtension, AsyncAsyncThroughputValidates) {
  const AsyncAsyncRow row = throughput_async_async(cfg_of(4, 8), 300);
  EXPECT_TRUE(row.validated);
  EXPECT_GT(row.put_mops, 100.0);
  EXPECT_GT(row.get_mops, 100.0);
  // In a self-timed loop the two interfaces rate-match.
  EXPECT_NEAR(row.put_mops, row.get_mops, 0.1 * row.put_mops);
}

TEST(MatrixExtension, SyncAsyncLatencyDeterministic) {
  const LatencyRow row = latency_sync_async(cfg_of(4, 8));
  EXPECT_GT(row.min_ns, 0.0);
  EXPECT_DOUBLE_EQ(row.min_ns, row.max_ns);
  // No synchronizer crossing on the read side: lower latency than the
  // fully synchronous design's minimum.
  const LatencyRow mc = latency_mixed_clock(cfg_of(4, 8), 6);
  EXPECT_LT(row.min_ns, mc.min_ns);
}

TEST(MatrixExtension, AsyncAsyncLatencyLowest) {
  const LatencyRow aa = latency_async_async(cfg_of(4, 8));
  const LatencyRow sa = latency_sync_async(cfg_of(4, 8));
  EXPECT_GT(aa.min_ns, 0.0);
  // No clock anywhere: the async-async FIFO has the lowest latency of the
  // matrix (the [4] design's headline property).
  EXPECT_LT(aa.min_ns, sa.min_ns);
}

TEST(MatrixExtension, LatencyGrowsWithCapacityAcrossTheMatrix) {
  EXPECT_LT(latency_sync_async(cfg_of(4, 8)).min_ns,
            latency_sync_async(cfg_of(16, 8)).min_ns);
  EXPECT_LT(latency_async_async(cfg_of(4, 8)).min_ns,
            latency_async_async(cfg_of(16, 8)).min_ns);
}

/// One bench_matrix_extension row, formatted exactly as the bench prints
/// it: design, places, put, get, latency min, latency max, validated.
std::string matrix_row(unsigned design, unsigned cap) {
  const fifo::FifoConfig cfg = cfg_of(cap, 8);
  double put = 0.0;
  double get = 0.0;
  bool ok = false;
  LatencyRow lat;
  switch (design) {
    case 0: {
      const ThroughputRow tp = throughput_mixed_clock(cfg, 800);
      put = tp.put;
      get = tp.get;
      ok = tp.validated;
      lat = latency_mixed_clock(cfg, 12);
      break;
    }
    case 1: {
      const ThroughputRow tp = throughput_async_sync(cfg, 800);
      put = tp.put;
      get = tp.get;
      ok = tp.validated;
      lat = latency_async_sync(cfg, 12);
      break;
    }
    case 2: {
      const ThroughputRow tp = throughput_sync_async(cfg, 800);
      put = tp.put;
      get = tp.get;
      ok = tp.validated;
      lat = latency_sync_async(cfg);
      break;
    }
    default: {
      const AsyncAsyncRow tp = throughput_async_async(cfg, 400);
      put = tp.put_mops;
      get = tp.get_mops;
      ok = tp.validated;
      lat = latency_async_async(cfg);
      break;
    }
  }
  return std::to_string(cap) + "," + fmt(put, 0) + "," + fmt(get, 0) + "," +
         fmt(lat.min_ns, 2) + "," + fmt(lat.max_ns, 2) + "," +
         (ok ? "yes" : "NO");
}

TEST(MatrixExtension, BenchRowsArePinned) {
  // The full 2x2 matrix at 4/8/16 places, as bench_matrix_extension --csv
  // prints it. Pins the sync-async and async-async timing that no golden
  // waveform covers; any change to a cell's netlist shows up here.
  const char* const kDesigns[] = {"sync-sync", "async-sync", "sync-async",
                                  "async-async"};
  const char* const kPinned[] = {
      "4,596,580,4.83,6.41,yes",  "4,428,580,4.74,6.32,yes",
      "4,596,372,3.62,3.62,yes",  "4,404,404,2.99,2.99,yes",
      "8,504,493,5.62,7.48,yes",  "8,356,493,5.58,7.44,yes",
      "8,504,334,4.19,4.19,yes",  "8,336,334,3.48,3.48,yes",
      "16,492,482,5.92,7.82,yes", "16,312,482,5.88,7.79,yes",
      "16,492,287,4.48,4.48,yes", "16,294,287,3.93,3.93,yes",
  };
  const unsigned caps[] = {4, 8, 16};
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned d = 0; d < 4; ++d) {
      EXPECT_EQ(matrix_row(d, caps[c]), kPinned[c * 4 + d]) << kDesigns[d];
    }
  }
}

}  // namespace
}  // namespace mts::metrics
