// Host-side helpers and the layer probes that need no workload design.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "campaignd/json.hpp"
#include "gates/combinational.hpp"
#include "gates/delay_model.hpp"
#include "gates/netlist.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this process (the Python launcher).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double time_render(const std::function<std::size_t()>& render, unsigned batch,
                   unsigned samples, std::uint64_t& bytes) {
  std::vector<double> t;
  for (unsigned s = 0; s < samples; ++s) {
    const double t0 = now_s();
    for (unsigned i = 0; i < batch; ++i) bytes = render();
    t.push_back((now_s() - t0) / batch);
  }
  return median(t);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

int rotation_cpu(unsigned i) {
  static const std::vector<int> cpus = allowed_cpus();
  return cpus.empty() ? -1 : cpus[i % cpus.size()];
}

CpuPin::CpuPin(int cpu) {
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

std::uint64_t fnv_str(std::uint64_t h, const std::string& s) noexcept {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string pinned_fingerprint(const std::string& workload,
                               std::uint64_t seed) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/fingerprints.json");
  if (!in) return std::string();
  std::stringstream ss;
  ss << in.rdbuf();
  const mts::campaignd::json::Value doc = mts::campaignd::json::parse(ss.str());
  const mts::campaignd::json::Value* w = doc.find(workload);
  if (w == nullptr) return std::string();
  const mts::campaignd::json::Value* f = w->find(std::to_string(seed));
  return f != nullptr ? f->as_string() : std::string();
}

void check_pinned(
    const std::string& workload,
    const std::vector<std::pair<std::uint64_t, std::string>>& runs,
    Result& out) {
  for (const auto& [seed, fp] : runs) {
    const std::string want = pinned_fingerprint(workload, seed);
    std::fprintf(stderr, "perfbench: %s seed %llu fingerprint %s\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 fp.c_str());
    out.check(fp == want, workload + ": seed " + std::to_string(seed) +
                              " fingerprint " + fp + " != pinned '" + want +
                              "'");
  }
}

GatesProbe probe_gates(Tracer* tracer, unsigned changes, unsigned reps) {
  using namespace mts;
  sim::Simulation sim(1);
  gates::Netlist nl(sim, "probe");
  std::vector<sim::Wire*> in;
  for (unsigned i = 0; i < 16; ++i) {
    in.push_back(&nl.wire("in" + std::to_string(i)));
  }
  sim::Wire& out = gates::make_or_tree(nl, "or16", in,
                                       gates::DelayModel::hp06());
  // Stride-5 toggles: the set of high inputs keeps changing size, so the
  // output both holds and flips, like a detector tree in a busy FIFO.
  unsigned k = 0;
  auto toggle_batch = [&] {
    for (unsigned c = 0; c < changes; ++c, ++k) {
      sim::Wire& w = *in[(k * 5) % 16];
      w.set(!w.read());
      sim.run();
    }
  };
  toggle_batch();  // warm-up: pools and listener storage reach steady size

  std::vector<double> ns;
  std::vector<double> allocs_per;
  std::vector<double> events_per;
  for (unsigned r = 0; r < reps; ++r) {
    const std::uint64_t e0 = sim.sched().events_executed();
    const std::uint64_t a0 = allocs();
    const double t0 = now_s();
    {
      Span s(tracer, "gates.or_tree_toggles");
      toggle_batch();
    }
    const double t1 = now_s();
    const std::uint64_t a1 = allocs();
    const double n = static_cast<double>(changes);
    ns.push_back((t1 - t0) * 1e9 / n);
    allocs_per.push_back(static_cast<double>(a1 - a0) / n);
    events_per.push_back(
        static_cast<double>(sim.sched().events_executed() - e0) / n);
  }
  (void)out;
  return GatesProbe{median(ns), median(allocs_per), median(events_per)};
}

void report_gates(Tracer* tracer, Result& out) {
  const GatesProbe g = probe_gates(tracer, 20000, 5);
  out.layer("gates.ns_per_input_change", g.ns_per_input_change, "ns");
  out.layer("gates.allocs_per_input_change", g.allocs_per_input_change,
            "count");
  out.layer("gates.events_per_input_change", g.events_per_input_change,
            "count");
}

void report_self_shares(const Tracer& tracer, Result& out) {
  const std::map<std::string, double> self = tracer.self_seconds();
  double total = 1e-12;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer : {"bench", "sim", "gates", "fifo", "builder",
                            "telemetry", "export", "campaign", "campaignd"}) {
    const auto it = self.find(layer);
    out.layer(std::string("self_share.") + layer,
              it != self.end() ? it->second / total : 0.0, "ratio");
  }
}

double calibration_ms() {
  // xorshift64 steps: pure integer work with a loop-carried dependency, so
  // the time tracks the core's speed and not the memory system.
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const double t0 = now_s();
  for (unsigned i = 0; i < 20'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

}  // namespace perfbench
