#include "sim/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
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
  std::ostringstream os;
  os << "{\n";
  os << "  \"failures\": " << failures_ << ",\n";
  os << "  \"entries_total\": " << total_added_ << ",\n";
  os << "  \"entries_recorded\": " << entries_.size() << ",\n";
  os << "  \"categories\": {";
  bool first = true;
  for (const auto& [cat, n] : per_category_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(cat) << "\": " << n;
  }
  os << "},\n";
  os << "  \"entries\": [";
  first = true;
  for (const auto& e : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"t\": " << e.time << ", \"severity\": \""
       << severity_name(e.severity) << "\", \"category\": \""
       << json_escape(e.category) << "\", \"message\": \""
       << json_escape(e.message) << "\"}";
  }
  os << (first ? "]" : "\n  ]") << ",\n";
  os << "  \"kernel\": {\"events_executed\": " << kernel_.events_executed
     << ", \"peak_queue_depth\": " << kernel_.peak_queue_depth
     << ", \"pool_high_water\": " << kernel_.pool_high_water;
  if (!kernel_.hot_sites.empty()) {
    os << ", \"hot_sites\": [";
    first = true;
    for (const auto& s : kernel_.hot_sites) {
      if (!first) os << ",";
      first = false;
      os << "\n    {\"site\": \"" << json_escape(s.label)
         << "\", \"events\": " << s.events << ", \"wall_ns\": " << s.wall_ns
         << "}";
    }
    os << "\n  ]";
  }
  os << "}";
  if (metrics_provider_) {
    os << ",\n  \"metrics\": " << metrics_provider_();
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace mts::sim
