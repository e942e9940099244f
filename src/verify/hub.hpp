// verify::Hub -- the violation sink and severity-policy switchboard.
//
// Arming follows the sim::Observability pattern exactly: a Hub is armed on a
// Simulation *before components are constructed*; each component checks
// Simulation::monitors() once, in its constructor, and attaches its runtime
// checkers only when armed. With no hub armed the monitor framework costs
// the seed path one null-pointer branch at construction time and NOTHING
// per event -- tests/faults/test_golden_waveform.cpp holds the unarmed (and
// the armed-but-clean) Fig. 3 VCDs bit-identical to the recorded hashes.
//
// Every checker routes its findings through Hub::report(), which applies
// the severity policy for that invariant:
//
//   kRecord  (default)  keep the full Violation in a capped log, mirror it
//                       into the Simulation's Report, continue running
//   kCount              per-invariant totals and metrics counters only --
//                       bounded memory for armed soak campaigns
//   kThrow              record, then throw ProtocolViolationError: the run
//                       dies at the first broken invariant (campaign
//                       supervision catches, classifies and bundles it)
//
// Monitors only ever *read* wires and schedule read-only settle checks, so
// even an ARMED hub perturbs no waveform: same-seed armed runs stay
// VCD-bit-identical to unarmed runs.
//
// Header-only (like sim/observe.hpp and metrics/registry.hpp) so fifo /
// sync / lip / sim can all use it with no new link edges.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "verify/violation.hpp"

namespace mts::verify {

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Arms this hub on `sim` and mirrors recorded violations into its
  /// Report. Must run before the components to monitor are constructed;
  /// the hub must outlive the simulation or be disarmed first.
  void arm(sim::Simulation& sim) {
    sim.arm_monitors(this);
    report_ = &sim.report();
  }

  /// Returns `sim` to the dormant fast path.
  static void disarm(sim::Simulation& sim) { sim.arm_monitors(nullptr); }

  // -- policy -------------------------------------------------------------

  /// Default policy for every invariant without an override.
  void set_policy(Policy p) noexcept { default_policy_ = p; }
  /// Per-invariant override (e.g. throw on token-ring corruption but only
  /// count bundled-data warnings during a soak).
  void set_policy(Invariant inv, Policy p) {
    overrides_[index(inv)] = p;
  }
  Policy policy_for(Invariant inv) const noexcept {
    const std::optional<Policy>& o = overrides_[index(inv)];
    return o.has_value() ? *o : default_policy_;
  }

  /// Optional metrics sink: per-site "violation.<invariant>" counters.
  void set_metrics(metrics::Registry* m) noexcept { metrics_ = m; }
  /// Report sink override (arm() wires the simulation's own Report).
  void set_report(sim::Report* r) noexcept { report_ = r; }

  /// Cap on violations kept in the log (counting continues past it).
  void set_max_log(std::size_t n) noexcept { max_log_ = n; }

  /// Clock-period tolerance as a fraction of the nominal period; a clock
  /// monitor flags cycles whose generated period deviates by more than
  /// max(configured jitter, this fraction x nominal). See sync/clock.cpp.
  void set_clock_tolerance(double frac) noexcept { clock_tol_frac_ = frac; }
  double clock_tolerance() const noexcept { return clock_tol_frac_; }

  // -- reporting (called by checkers) -------------------------------------

  /// Applies the severity policy to `v`. Under kThrow the violation is
  /// recorded first, so post-mortem logs include the fatal finding.
  void report(Violation v) {
    const Policy p = policy_for(v.invariant);
    ++total_;
    ++counts_[index(v.invariant)];
    if (metrics_ != nullptr) {
      metrics_
          ->counter(v.site,
                    std::string("violation.") + invariant_name(v.invariant))
          .inc();
    }
    if (p != Policy::kCount) {
      if (report_ != nullptr) {
        report_->add(v.time, sim::Severity::kViolation,
                     std::string("verify-") + invariant_name(v.invariant),
                     v.to_string());
      }
      if (log_.size() < max_log_) log_.push_back(v);
    }
    if (p == Policy::kThrow) throw ProtocolViolationError(std::move(v));
  }

  // -- inspection ----------------------------------------------------------

  /// Recorded violations (kRecord/kThrow policies), oldest first, capped.
  const std::vector<Violation>& violations() const noexcept { return log_; }
  /// Violations reported under `inv`, including those counted or dropped
  /// past the log cap.
  std::uint64_t count(Invariant inv) const noexcept {
    return counts_[index(inv)];
  }
  /// All violations ever reported, any invariant or policy.
  std::uint64_t total() const noexcept { return total_; }

  /// Drops the log and zeroes every counter (policies are kept). The
  /// campaign engine calls this between supervised runs.
  void clear() {
    log_.clear();
    counts_.fill(0);
    total_ = 0;
  }

  /// JSON object: total, per-invariant counts, and the recorded log.
  std::string to_json() const {
    std::string out;
    sim::JsonWriter w(out);
    w.begin_object().key("total").u64(total_).key("counts").begin_object();
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      w.key(invariant_name(static_cast<Invariant>(i))).u64(counts_[i]);
    }
    w.end_object().key("violations").begin_array();
    for (const Violation& v : log_) w.raw(v.to_json());
    w.end_array().end_object();
    return out;
  }


 private:
  static constexpr std::size_t kInvariants =
      static_cast<std::size_t>(Invariant::kLivelock) + 1;

  static std::size_t index(Invariant inv) noexcept {
    return static_cast<std::size_t>(inv);
  }

  Policy default_policy_ = Policy::kRecord;
  std::array<std::optional<Policy>, kInvariants> overrides_{};
  sim::Report* report_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
  std::size_t max_log_ = 10'000;
  double clock_tol_frac_ = 0.01;

  std::vector<Violation> log_;
  std::array<std::uint64_t, kInvariants> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace mts::verify
