// perfbench: the repository benchmark driver.
//
//   perfbench --workload <fig3_fifos|fig14_soc|campaign_matrix> --seed N
//             --seconds S --trace <0|1> [--trace-out PATH]
//   perfbench worker --port N      (campaignd worker process; internal)
//
// Prints an `env` line (host, affinity, CPU, compiler, calibration loop) and
// then, as the last line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`: every end-to-end metric with --trace 0, every
// per-layer metric with --trace 1. Metrics a workload does not exercise
// read 0 (e.g. campaignd.* on fig3_fifos). Exit 1 without a result line on
// bad arguments or an unexpected exception.
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>

#include "bench.hpp"
#include "campaignd/worker.hpp"

// Counts every global operator new (all threads); the benchmark diffs it
// around measured regions.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocs() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in output order.
constexpr MetricSpec kEndToEnd[] = {
    {"cycles_per_s", "1/s"},       {"allocs_per_cycle", "count"},
    {"sim_items_per_cycle", "count"}, {"export_s", "s"},
    {"runs_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_cycle", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.peak_queue_depth", "count"},
    {"sim.pool_high_water", "count"},
    {"gates.ns_per_input_change", "ns"},
    {"gates.allocs_per_input_change", "count"},
    {"gates.events_per_input_change", "count"},
    {"builder.elaborate_ms", "ms"},
    {"builder.elements", "count"},
    {"verify.violations", "count"},
    {"verify.armed_overhead_pct", "%"},
    {"telemetry.sample_us_early", "us"},
    {"telemetry.sample_us_late", "us"},
    {"telemetry.allocs_per_sample", "count"},
    {"telemetry.samples", "count"},
    {"telemetry.points", "count"},
    {"telemetry.armed_overhead_pct", "%"},
    {"export.report_ms", "ms"},
    {"export.timeline_ms", "ms"},
    {"export.trace_ms", "ms"},
    {"export.bytes", "bytes"},
    {"fifo.latency_ps_p50", "ps"},
    {"fifo.latency_ps_p99", "ps"},
    {"lip.stall_duty", "ratio"},
    {"sync.crossings", "count"},
    {"bfm.scoreboard_errors", "count"},
    {"campaign.body_ms_p50", "ms"},
    {"campaign.body_ms_p99", "ms"},
    {"campaign.engine_share", "ratio"},
    {"campaign.runs_per_s_threads", "1/s"},
    {"campaignd.runs_per_s_procs", "1/s"},
    {"campaignd.simulate_us", "us"},
    {"campaignd.record_us", "us"},
    {"campaignd.encode_us", "us"},
    {"campaignd.frame_us", "us"},
    {"campaignd.decode_us", "us"},
    {"campaignd.fold_us", "us"},
    {"campaignd.record_bytes", "bytes"},
    {"campaignd.ipc_share", "ratio"},
    {"profile.clock_share", "ratio"},
    {"profile.driver_share", "ratio"},
    {"profile.other_share", "ratio"},
    {"self_share.bench", "ratio"},
    {"self_share.sim", "ratio"},
    {"self_share.gates", "ratio"},
    {"self_share.fifo", "ratio"},
    {"self_share.builder", "ratio"},
    {"self_share.verify", "ratio"},
    {"self_share.telemetry", "ratio"},
    {"self_share.export", "ratio"},
    {"self_share.campaign", "ratio"},
    {"self_share.campaignd", "ratio"},
    {"trace.overhead_pct", "%"},
    {"env.calibration_ms", "ms"},
    {"failed_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig3_fifos|fig14_soc|campaign_matrix> --seed N --seconds S "
               "--trace <0|1> [--trace-out PATH]\n",
               why);
  std::exit(1);
}

std::string affinity_list() {
  std::string s;
  for (int c : allowed_cpus()) s += (s.empty() ? "" : ",") + std::to_string(c);
  return s.empty() ? "?" : s;
}

/// Emits `specs` in order, taking each value from `got` (0 when the
/// workload has no such metric). Fails on a metric outside `specs`.
template <std::size_t N>
std::string metrics_json(const MetricSpec (&specs)[N],
                         const std::vector<Metric>& got) {
  for (const Metric& m : got) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || m.name == s.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", m.name.c_str());
      std::exit(1);
    }
  }
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    double v = 0.0;
    for (const Metric& m : got) {
      if (m.name == specs[i].name) v = m.value;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
    out += buf;
  }
  return out + "}";
}

int run(int argc, char** argv) {
  Args a;
  std::string trace_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_trace || !(a.seconds > 0.0)) {
    usage("--workload, --seconds and --trace are required");
  }

  const int cpu_start = sched_getcpu();
  const double calib_start = calibration_ms();
  Tracer tracer;
  Tracer* t = a.trace ? &tracer : nullptr;
  Result res;
  if (a.workload == "fig3_fifos") {
    run_fig3_fifos(a, t, res);
  } else if (a.workload == "fig14_soc") {
    run_fig14_soc(a, t, res);
  } else if (a.workload == "campaign_matrix") {
    run_campaign_matrix(a, t, res);
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  const double calib_end = calibration_ms();
  const int cpu_end = sched_getcpu();

  if (a.trace) {
    report_self_shares(tracer, res);
    res.layer("env.calibration_ms", 0.5 * (calib_start + calib_end), "ms");
    res.layer("failed_share",
              static_cast<double>(res.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
              "ratio");
    if (!trace_out.empty() && !tracer.write_jsonl(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"affinity\": \"%s\", \"cpu_start\": %d, \"cpu_end\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"calibration_ms_start\": %.3f, \"calibration_ms_end\": %.3f}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      sysconf(_SC_NPROCESSORS_ONLN), affinity_list().c_str(), cpu_start,
      cpu_end, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, calib_start,
      calib_end);
  const std::string metrics = a.trace ? metrics_json(kPerLayer, res.per_layer)
                                      : metrics_json(kEndToEnd, res.end_to_end);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    // campaignd::Coordinator re-executes this binary as its worker fleet.
    mts::campaignd::WorkerOptions opt;
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--port") == 0) {
        opt.port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
      }
    }
    return mts::campaignd::run_worker(opt);
  }
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
