// In-memory spans for the traced run.
//
// The benchmark wraps each call it makes into a library layer in a Span
// named "<layer>.<call>" (sim.run_until, builder.elaborate, ...). Spans keep
// a name, start, end and parent; they stay in memory and are written out
// when the run ends. A layer's self time is the time its spans cover minus
// the part of that covered by their child spans, so nested calls are never
// charged twice. With no Tracer (the untraced run) a Span costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    double t0 = 0.0;  ///< seconds, steady clock
    double t1 = 0.0;
    int parent = -1;  ///< index into records(), -1 for a root
    unsigned thread = 0;
  };

  /// Opens a span; `parent` -1 nests it under this thread's innermost open
  /// span. Returns its id. Safe to call from any thread.
  int open(const std::string& name, int parent = -1);
  void close(int id);

  /// Self time per layer (the span name up to its first '.'), in seconds.
  std::map<std::string, double> self_seconds() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span: opens on construction, closes on destruction. No-op when the
/// tracer is null.
class Span {
 public:
  Span(Tracer* t, const std::string& name, int parent = -1)
      : t_(t), id_(t != nullptr ? t->open(name, parent) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const noexcept { return id_; }

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
