// Shared declarations of the benchmark driver: run arguments, the result
// record every workload fills, host-side counters and the small statistics
// helpers. See README.md for what each workload and metric means.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation measured and checked. Every correctness
/// gate goes through check(): `attempted` counts gates evaluated, `failed`
/// those that did not hold (their reasons go to stderr).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
};

/// Global operator new calls since process start (the hook lives in
/// main.cpp and counts every thread's allocations).
std::uint64_t allocs() noexcept;

/// Monotonic host time in seconds.
double now_s() noexcept;

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// Host time of one call of `render`, in seconds: `samples` batches of
/// `batch` back-to-back calls are timed, and the median batch is divided by
/// `batch` (batching lifts microsecond renders well above the clock's
/// resolution). The size the last call returned lands in `bytes`.
double time_render(const std::function<std::size_t()>& render, unsigned batch,
                   unsigned samples, std::uint64_t& bytes);

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// The CPU that episode `i` of a run is pinned to: each allowed CPU in turn.
/// On a shared host a single vCPU can run this code 1.5x slower than its
/// neighbours for seconds at a time; rotating makes every run sample all of
/// them instead of the one the scheduler happened to pick.
int rotation_cpu(unsigned i);

/// Pins the calling thread to one CPU while it lives, then restores the
/// thread's previous CPU mask. Threads and processes started meanwhile
/// inherit the pin, so it must not span a parallel job.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// FNV-1a/64 accumulation, for data-order and fingerprint hashes.
inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv_str(std::uint64_t h, const std::string& s) noexcept;

/// Looks up the pinned fingerprint for (workload, seed) in
/// fingerprints.json next to the binary's source; empty when none is pinned.
std::string pinned_fingerprint(const std::string& workload,
                               std::uint64_t seed);

/// Seeds whose fingerprints are pinned; every run re-checks them.
inline constexpr std::uint64_t kPinnedSeeds[] = {1, 2};

/// Checks each (seed, fingerprint) a run produced for a pinned seed against
/// fingerprints.json, and logs it to stderr.
void check_pinned(
    const std::string& workload,
    const std::vector<std::pair<std::uint64_t, std::string>>& runs,
    Result& out);

// Workloads (workloads.cpp). Each fills `out`; with `tracer` non-null the
// run is the traced one and fills the per-layer metrics.
void run_fig3_fifos(const Args& a, Tracer* tracer, Result& out);
void run_fig14_soc(const Args& a, Tracer* tracer, Result& out);
void run_campaign_matrix(const Args& a, Tracer* tracer, Result& out);

// Layer probes (probes.cpp).
struct GatesProbe {
  double ns_per_input_change = 0.0;
  double allocs_per_input_change = 0.0;
  double events_per_input_change = 0.0;
};
/// A 16-input OR tree (the detector width at capacity 16) driven with
/// `changes` single-input toggles; median of `reps` timed repetitions.
GatesProbe probe_gates(Tracer* tracer, unsigned changes, unsigned reps);
/// probe_gates() reported as the gates.* layer metrics.
void report_gates(Tracer* tracer, Result& out);

/// self_share.<layer>: each layer's span self time over the self time of
/// every span (per-thread spans of a parallel campaign each count).
void report_self_shares(const Tracer& tracer, Result& out);

/// A fixed-work integer loop; returns its host time in milliseconds.
double calibration_ms();

}  // namespace perfbench
