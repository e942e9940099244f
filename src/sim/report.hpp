// Run-wide diagnostics: timing violations, protocol errors, warnings.
//
// Checkers (setup/hold monitors, bus-conflict detection, scoreboards) never
// decide policy; they record findings here. Harness code inspects the counts
// to decide pass/fail -- e.g. the max-frequency search treats any "setup" or
// "hold" violation in the measured clock domain as a failed trial.
//
// to_json() serializes the whole report -- entries (up to the cap),
// per-category totals, kernel health counters including the profiler's
// hottest-callback table, and, when a metrics::Registry is bound (see
// metrics/registry.hpp), a "metrics" section with every per-instance
// counter/gauge/latency-histogram summary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/kernel_stats.hpp"
#include "sim/time.hpp"

namespace mts::sim {

enum class Severity { kInfo, kWarning, kViolation, kError };

/// "info" / "warning" / "violation" / "error".
const char* severity_name(Severity s) noexcept;

struct ReportEntry {
  Time time = 0;
  Severity severity = Severity::kInfo;
  std::string category;  ///< e.g. "setup", "hold", "bus-conflict", "scoreboard"
  std::string message;
};

class Report {
 public:
  void add(Time t, Severity sev, std::string category, std::string message);

  /// Number of entries at kViolation or kError severity, any category.
  std::size_t failure_count() const noexcept { return failures_; }

  /// Number of entries recorded under `category` (any severity).
  std::size_t count(const std::string& category) const;

  /// Entries ever add()ed, including those dropped past the cap.
  std::uint64_t total_added() const noexcept { return total_added_; }

  const std::vector<ReportEntry>& entries() const noexcept { return entries_; }

  /// Per-category entry totals (counts keep counting past the entry cap).
  const std::map<std::string, std::size_t>& categories() const noexcept {
    return per_category_;
  }

  /// Checkpoint/wire seam (src/campaignd): replaces this report's recorded
  /// state with an exact snapshot previously captured through entries() /
  /// categories() / failure_count() / total_added() / kernel(). The
  /// snapshot is lossless -- unlike replaying add(), category totals and
  /// entry counts beyond the cap survive -- so a restored report merges
  /// byte-identically to the original. The metrics provider binding and
  /// the entry cap are left untouched.
  void restore(std::vector<ReportEntry> entries,
               std::map<std::string, std::size_t> per_category,
               std::size_t failures, std::uint64_t total_added,
               KernelStats kernel);

  /// Drops all recorded entries and counters.
  void clear();

  /// Campaign reduction: folds `other` into this report. Per-category
  /// totals, failure and entry counts add; `other`'s recorded entries are
  /// appended up to this report's cap; kernel counters combine (events and
  /// pool high-water add across shards, peak queue depth takes the max --
  /// shards are independent schedulers, so sums describe the campaign's
  /// aggregate work and the max its worst single-run pressure). The
  /// metrics provider binding is left untouched.
  void merge(const Report& other);

  /// Caps stored entries to bound memory in long runs; counters keep
  /// counting past the cap.
  void set_max_entries(std::size_t n) { max_entries_ = n; }
  std::size_t max_entries() const noexcept { return max_entries_; }

  /// Kernel health counters, refreshed by Simulation after run()/run_until()
  /// so harnesses can report them alongside the timing findings.
  void set_kernel(const KernelStats& s) { kernel_ = s; }
  const KernelStats& kernel() const noexcept { return kernel_; }

  /// Attaches a provider whose returned JSON object is embedded verbatim as
  /// the "metrics" member of to_json() (the registry binds itself here --
  /// metrics::Registry::bind). Pass an empty function to detach.
  void set_metrics_json_provider(std::function<std::string()> provider) {
    metrics_provider_ = std::move(provider);
  }

  /// The bound provider's JSON right now, or "" with no provider -- the
  /// snapshot hook matching set_metrics_json_provider (a wire/checkpoint
  /// snapshot captures the provider's output, not the closure).
  std::string metrics_json() const {
    return metrics_provider_ ? metrics_provider_() : std::string();
  }

  /// Whole-report JSON object; see the header comment for the shape.
  std::string to_json() const;

 private:
  std::vector<ReportEntry> entries_;
  std::map<std::string, std::size_t> per_category_;
  std::size_t failures_ = 0;
  std::uint64_t total_added_ = 0;
  std::size_t max_entries_ = 10'000;
  KernelStats kernel_;
  std::function<std::string()> metrics_provider_;
};

}  // namespace mts::sim
