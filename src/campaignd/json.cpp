#include "campaignd/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "sim/json_writer.hpp"

namespace mts::campaignd::json {

namespace {

bool is_integral_text(const std::string& t) {
  for (const char c : t) {
    if (c == '.' || c == 'e' || c == 'E') return false;
  }
  return true;
}

}  // namespace

Value Value::number_u64(std::uint64_t v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.str_ = std::to_string(v);
  return out;
}

Value Value::number_i64(std::int64_t v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.str_ = std::to_string(v);
  return out;
}

Value Value::number_double(double v) {
  Value out;
  out.kind_ = Kind::kNumber;
  sim::JsonWriter(out.str_).exact(v);
  return out;
}

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) throw ProtocolError("expected bool");
  return bool_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) throw ProtocolError("expected string");
  return str_;
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::kNumber) throw ProtocolError("expected number");
  if (!is_integral_text(str_) || (!str_.empty() && str_[0] == '-')) {
    throw ProtocolError("expected unsigned integer, got '" + str_ + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(str_.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    throw ProtocolError("unsigned integer out of range: '" + str_ + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::kNumber) throw ProtocolError("expected number");
  if (!is_integral_text(str_)) {
    throw ProtocolError("expected integer, got '" + str_ + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(str_.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    throw ProtocolError("integer out of range: '" + str_ + "'");
  }
  return static_cast<std::int64_t>(v);
}

double Value::as_double() const {
  if (kind_ != Kind::kNumber) throw ProtocolError("expected number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(str_.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw ProtocolError("bad number: '" + str_ + "'");
  }
  // JSON has no infinity: a literal too large for a double (1e999) is
  // rejected, not turned into one.
  if (!std::isfinite(v)) {
    throw ProtocolError("number out of range: '" + str_ + "'");
  }
  return v;
}

unsigned Value::as_unsigned() const {
  const std::uint64_t v = as_u64();
  if (v > std::numeric_limits<unsigned>::max()) {
    throw ProtocolError("unsigned out of range: '" + str_ + "'");
  }
  return static_cast<unsigned>(v);
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) throw ProtocolError("expected array");
  return arr_;
}

const Members& Value::as_object() const {
  if (kind_ != Kind::kObject) throw ProtocolError("expected object");
  return obj_;
}

const std::string& Value::number_text() const {
  if (kind_ != Kind::kNumber) throw ProtocolError("expected number");
  return str_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) throw ProtocolError("expected object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw ProtocolError("missing member '" + key + "'");
  return *v;
}

void Value::set(const std::string& key, Value v) {
  if (kind_ != Kind::kObject) throw ProtocolError("expected object");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

std::uint64_t Value::get_u64(const std::string& key,
                             std::uint64_t dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_u64();
}

double Value::get_double(const std::string& key, double dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_double();
}

std::string Value::get_string(const std::string& key,
                              const std::string& dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_string();
}

bool Value::get_bool(const std::string& key, bool dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_bool();
}

void Value::push(Value v) {
  if (kind_ != Kind::kArray) throw ProtocolError("expected array");
  arr_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  throw ProtocolError("size() on scalar");
}

namespace {

void dump_into(const Value& v, sim::JsonWriter& w) {
  switch (v.kind()) {
    case Kind::kNull: w.null(); return;
    case Kind::kBool: w.boolean(v.as_bool()); return;
    case Kind::kNumber: w.raw(v.number_text()); return;
    case Kind::kString: w.str(v.as_string()); return;
    case Kind::kArray:
      w.begin_array(sim::JsonWriter::Layout::kCompact);
      for (const Value& e : v.as_array()) dump_into(e, w);
      w.end_array();
      return;
    case Kind::kObject:
      w.begin_object(sim::JsonWriter::Layout::kCompact);
      for (const auto& [k, m] : v.as_object()) {
        w.key(k);
        dump_into(m, w);
      }
      w.end_object();
      return;
  }
}

}  // namespace

std::string Value::dump() const {
  std::string out;
  sim::JsonWriter w(out);
  dump_into(*this, w);
  return out;
}

// -- parser -----------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw ProtocolError(why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of document");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_lit(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_lit("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_lit("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_lit("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The repo's emitters only \u-escape control characters; encode
          // the BMP code point as UTF-8 (surrogate pairs unsupported --
          // reject rather than emit broken sequences).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("bad number");
    if (s_[int_start] == '0' && pos_ - int_start > 1) {
      fail("bad number (leading zero)");  // RFC 8259: 0 / digit1-9 *DIGIT
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number (fraction)");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad number (exponent)");
    }
    Value v;
    v.kind_ = Kind::kNumber;
    v.str_ = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace mts::campaignd::json
