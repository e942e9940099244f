#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread stack of open span ids, for implicit parents.
thread_local std::vector<int> t_open;

unsigned thread_tag() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFFu);
}

}  // namespace

int Tracer::open(const std::string& name, int parent) {
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  Record r;
  r.name = name;
  r.parent = parent;
  r.thread = thread_tag();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(records_.size());
    records_.push_back(std::move(r));
  }
  t_open.push_back(id);
  const double t = steady_s();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].t0 = t;
  return id;
}

void Tracer::close(int id) {
  const double t = steady_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].t1 = t;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(records_.size());
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      kids[static_cast<std::size_t>(r.parent)].emplace_back(r.t0, r.t1);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Union of the children's intervals, clipped to this span: children on
    // pool threads overlap each other and must be counted once.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur0 = 0.0;
    double cur1 = -1.0;
    for (auto [a, b] : iv) {
      a = std::max(a, r.t0);
      b = std::min(b, r.t1);
      if (b <= a) continue;
      if (a > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = a;
        cur1 = b;
      } else {
        cur1 = std::max(cur1, b);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    const std::string layer = r.name.substr(0, r.name.find('.'));
    self[layer] += std::max(0.0, (r.t1 - r.t0) - covered);
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = records_.empty() ? 0.0 : records_.front().t0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"thread\": %u, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, r.parent, r.name.c_str(), r.thread, (r.t0 - base) * 1e6,
                 (r.t1 - base) * 1e6);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
