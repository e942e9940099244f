// The one JSON writer behind every exported document (reports, registry,
// traces, timelines, campaign summaries, repro bundles, violation logs,
// builder designs, model-checker results, campaignd's wire encoding). It
// appends to a caller-owned std::string and writes the separators itself,
// in the layout each container picks when it is opened:
//
//   kCompact  {"a":1,"b":[1,2]}
//   kInline   {"a": 1, "b": [1, 2]}
//   kLines    one member per line, indented 2 spaces per open kLines
//             container, the closer on its own line; empty stays {} / []
//
// Bytes that are not a token (a trailing newline) the caller appends to its
// string directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mts::sim {

class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kCompact, kInline, kLines };

  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object(Layout l = Layout::kInline) { return open('{', l); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(Layout l = Layout::kInline) { return open('[', l); }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next token is its value.
  JsonWriter& key(std::string_view k);

  /// A string: `"`, `\`, \n, \r and \t escaped by their short forms, other
  /// control characters as \u00XX.
  JsonWriter& str(std::string_view s);
  JsonWriter& u64(std::uint64_t v);
  JsonWriter& i64(std::int64_t v);
  JsonWriter& boolean(bool v) { return raw(v ? "true" : "false"); }
  JsonWriter& null() { return raw("null"); }

  // Doubles: NaN and infinities are written as 0 (JSON has neither).
  /// %g, the default ostream form (reports, campaign summaries).
  JsonWriter& num(double v) { return real(v, false, 6); }
  /// %.17g, which round-trips every double (campaignd snapshots).
  JsonWriter& exact(double v) { return real(v, false, 17); }
  /// Integral values below 1e15 with no fraction, others %.6g (timeline
  /// points: counters stay exact).
  JsonWriter& value(double v);
  /// Picoseconds as the trace format's microseconds ("12.000345").
  JsonWriter& ts_us(Time t);

  /// A value that is already rendered JSON, spliced verbatim.
  JsonWriter& raw(std::string_view json);

 private:
  struct Frame {
    Layout layout;
    bool any = false;  ///< a member or element was written
  };

  /// Writes the separator owed before the next member or element.
  void separate();
  /// `v` as printf's "%.<precision>g" (or "%.<precision>f" when `fixed`).
  JsonWriter& real(double v, bool fixed, int precision);
  JsonWriter& open(char opener, Layout layout);
  JsonWriter& close(char closer);

  std::string& out_;
  std::vector<Frame> open_;
  std::size_t lines_open_ = 0;  ///< kLines frames in open_
  bool after_key_ = false;
};

}  // namespace mts::sim
