#include "sim/report.hpp"

#include <algorithm>
#include <utility>

#include "sim/json_writer.hpp"

namespace mts::sim {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kViolation: return "violation";
    case Severity::kError: return "error";
  }
  return "unknown";
}

void Report::add(Time t, Severity sev, std::string category, std::string message) {
  ++per_category_[category];
  ++total_added_;
  if (sev == Severity::kViolation || sev == Severity::kError) ++failures_;
  if (entries_.size() < max_entries_) {
    entries_.push_back(ReportEntry{t, sev, std::move(category), std::move(message)});
  }
}

std::size_t Report::count(const std::string& category) const {
  auto it = per_category_.find(category);
  return it == per_category_.end() ? 0 : it->second;
}

void Report::merge(const Report& other) {
  for (const auto& [cat, n] : other.per_category_) per_category_[cat] += n;
  failures_ += other.failures_;
  total_added_ += other.total_added_;
  for (const ReportEntry& e : other.entries_) {
    if (entries_.size() >= max_entries_) break;
    entries_.push_back(e);
  }
  kernel_.events_executed += other.kernel_.events_executed;
  kernel_.pool_high_water += other.kernel_.pool_high_water;
  kernel_.peak_queue_depth =
      std::max(kernel_.peak_queue_depth, other.kernel_.peak_queue_depth);
  // Hot-site rows: concatenate by label, summing duplicates, hottest first.
  if (!other.kernel_.hot_sites.empty()) {
    for (const KernelSiteStat& s : other.kernel_.hot_sites) {
      bool found = false;
      for (KernelSiteStat& mine : kernel_.hot_sites) {
        if (mine.label == s.label) {
          mine.events += s.events;
          mine.wall_ns += s.wall_ns;
          found = true;
          break;
        }
      }
      if (!found) kernel_.hot_sites.push_back(s);
    }
    std::sort(kernel_.hot_sites.begin(), kernel_.hot_sites.end(),
              [](const KernelSiteStat& a, const KernelSiteStat& b) {
                return a.wall_ns != b.wall_ns ? a.wall_ns > b.wall_ns
                                              : a.events > b.events;
              });
  }
}

void Report::restore(std::vector<ReportEntry> entries,
                     std::map<std::string, std::size_t> per_category,
                     std::size_t failures, std::uint64_t total_added,
                     KernelStats kernel) {
  entries_ = std::move(entries);
  per_category_ = std::move(per_category);
  failures_ = failures;
  total_added_ = total_added;
  kernel_ = std::move(kernel);
}

void Report::clear() {
  entries_.clear();
  per_category_.clear();
  failures_ = 0;
  total_added_ = 0;
  kernel_ = KernelStats{};
}

std::string Report::to_json() const {
  using Layout = JsonWriter::Layout;
  std::string out;
  JsonWriter w(out);
  w.begin_object(Layout::kLines).key("failures").u64(failures_)
      .key("entries_total").u64(total_added_)
      .key("entries_recorded").u64(entries_.size())
      .key("categories").begin_object();
  for (const auto& [cat, n] : per_category_) w.key(cat).u64(n);
  w.end_object().key("entries").begin_array(Layout::kLines);
  for (const auto& e : entries_) {
    w.begin_object().key("t").u64(e.time)
        .key("severity").str(severity_name(e.severity))
        .key("category").str(e.category).key("message").str(e.message)
        .end_object();
  }
  w.end_array().key("kernel").begin_object()
      .key("events_executed").u64(kernel_.events_executed)
      .key("peak_queue_depth").u64(kernel_.peak_queue_depth)
      .key("pool_high_water").u64(kernel_.pool_high_water);
  if (!kernel_.hot_sites.empty()) {
    w.key("hot_sites").begin_array(Layout::kLines);
    for (const auto& s : kernel_.hot_sites) {
      w.begin_object().key("site").str(s.label).key("events").u64(s.events)
          .key("wall_ns").u64(s.wall_ns).end_object();
    }
    w.end_array();
  }
  w.end_object();
  if (metrics_provider_) w.key("metrics").raw(metrics_provider_());
  w.end_object();
  out += '\n';
  return out;
}

}  // namespace mts::sim
