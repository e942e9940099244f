#include "sim/json_writer.hpp"

#include <charconv>
#include <cmath>

namespace mts::sim {

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::separate() {
  if (after_key_ || open_.empty()) {
    after_key_ = false;
    return;
  }
  Frame& f = open_.back();
  if (f.layout == Layout::kLines) {
    out_ += f.any ? ",\n" : "\n";
    out_.append(2 * lines_open_, ' ');
  } else if (f.any) {
    out_ += f.layout == Layout::kCompact ? "," : ", ";
  }
  f.any = true;
}

JsonWriter& JsonWriter::open(char opener, Layout layout) {
  separate();
  out_ += opener;
  open_.push_back(Frame{layout});
  if (layout == Layout::kLines) ++lines_open_;
  return *this;
}

JsonWriter& JsonWriter::close(char closer) {
  const Frame f = open_.back();
  open_.pop_back();
  if (f.layout == Layout::kLines) --lines_open_;
  if (f.layout == Layout::kLines && f.any) {
    out_ += '\n';
    out_.append(2 * lines_open_, ' ');
  }
  out_ += closer;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  str(k);
  out_ += open_.back().layout == Layout::kCompact ? ":" : ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view s) {
  separate();
  out_ += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        out_ += "\\u00";
        out_ += "0123456789abcdef"[c >> 4];
        out_ += "0123456789abcdef"[c & 0xF];
    }
  }
  out_.append(s, run);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::u64(std::uint64_t v) {
  separate();
  append_int(out_, v);
  return *this;
}

JsonWriter& JsonWriter::i64(std::int64_t v) {
  separate();
  append_int(out_, v);
  return *this;
}

JsonWriter& JsonWriter::real(double v, bool fixed, int precision) {
  separate();
  if (!std::isfinite(v)) {
    out_ += '0';
    return *this;
  }
  // std::to_chars at a precision gives exactly printf's bytes.
  const auto fmt =
      fixed ? std::chars_format::fixed : std::chars_format::general;
  char buf[64];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v, fmt, precision).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
  return real(v, integral, integral ? 0 : 6);
}

JsonWriter& JsonWriter::ts_us(Time t) {
  separate();
  append_int(out_, t / 1'000'000);
  char frac[7] = {'.'};
  Time rest = t % 1'000'000;
  for (int i = 6; i > 0; --i, rest /= 10) frac[i] = char('0' + rest % 10);
  out_.append(frac, sizeof frac);
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

}  // namespace mts::sim
