// sim::JsonWriter: the three layouts, string escaping, and a differential
// check of every number rendering against the printf format it stands for
// (random bit patterns, signed zeros, subnormals, the 1e15 integral
// boundary and timestamps).
#include "sim/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace mts::sim {
namespace {

using Layout = JsonWriter::Layout;

std::string printf_double(const char* fmt, double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

/// The timeline rule: integral values below 1e15 with no fraction.
std::string printf_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return printf_double("%.0f", v);
  }
  return printf_double("%.6g", v);
}

template <typename Fn>
std::string render(Fn fn) {
  std::string out;
  JsonWriter w(out);
  fn(w);
  return out;
}

std::vector<double> number_cases() {
  std::vector<double> v = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      123456.0,
      1234567.0,
      1e15,
      -1e15,
      999999999999999.0,
      -999999999999999.0,
      999999999999999.5,
      1e15 + 2.0,
      std::nextafter(1e15, 0.0),
      std::nextafter(1e15, 2e15),
      1e21,
      1e-5,
      123.456e-300,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  std::mt19937_64 rng(0x15ADull);
  std::uniform_real_distribution<double> unit(-1e6, 1e6);
  std::uniform_int_distribution<std::int64_t> ints(-(1ll << 52), 1ll << 52);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    v.push_back(d);                                    // any bit pattern
    v.push_back(unit(rng));                            // ordinary magnitudes
    v.push_back(static_cast<double>(ints(rng)));       // integral values
    v.push_back(std::ldexp(unit(rng), -1060));         // subnormals
  }
  return v;
}

TEST(JsonWriter, NumbersMatchThePrintfFormatsTheyReplace) {
  for (const double d : number_cases()) {
    EXPECT_EQ(render([d](JsonWriter& w) { w.num(d); }),
              printf_double("%g", d))
        << "num " << d;
    EXPECT_EQ(render([d](JsonWriter& w) { w.exact(d); }),
              printf_double("%.17g", d))
        << "exact " << d;
    EXPECT_EQ(render([d](JsonWriter& w) { w.value(d); }), printf_value(d))
        << "value " << d;
  }
}

TEST(JsonWriter, TimestampsMatchMicrosecondsWithPicosecondFraction) {
  std::vector<Time> cases = {0, 1, 999'999, 1'000'000, 1'000'001,
                             12'000'345, std::numeric_limits<Time>::max()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) cases.push_back(rng() >> (rng() % 64));
  for (const Time t : cases) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1'000'000),
                  static_cast<unsigned long long>(t % 1'000'000));
    EXPECT_EQ(render([t](JsonWriter& w) { w.ts_us(t); }), buf) << t;
  }
}

TEST(JsonWriter, IntegersAndLiterals) {
  EXPECT_EQ(render([](JsonWriter& w) {
              w.begin_array()
                  .u64(std::numeric_limits<std::uint64_t>::max())
                  .i64(std::numeric_limits<std::int64_t>::min())
                  .boolean(true)
                  .boolean(false)
                  .null()
                  .raw("{\"a\":1}")
                  .end_array();
            }),
            "[18446744073709551615, -9223372036854775808, true, false, null, "
            "{\"a\":1}]");
}

TEST(JsonWriter, StringsEscapeQuotesBackslashesAndControlBytes) {
  const std::string s = std::string("a\"b\\c\nd\re\tf") + '\x01' + '\x1f' +
                        "\x7f\xc3\xa9" + '\0' + "z";
  EXPECT_EQ(render([&s](JsonWriter& w) { w.str(s); }),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\x7f\xc3\xa9\\u0000z\"");
  EXPECT_EQ(render([](JsonWriter& w) { w.str(""); }), "\"\"");
}

TEST(JsonWriter, CompactAndInlineLayouts) {
  auto doc = [](Layout layout) {
    return render([layout](JsonWriter& w) {
      w.begin_object(layout)
          .key("a").u64(1)
          .key("b").begin_array(layout).u64(1).u64(2).end_array()
          .key("c").begin_object(layout).end_object()
          .key("d").begin_array(layout).end_array()
          .end_object();
    });
  };
  EXPECT_EQ(doc(Layout::kCompact), "{\"a\":1,\"b\":[1,2],\"c\":{},\"d\":[]}");
  EXPECT_EQ(doc(Layout::kInline),
            "{\"a\": 1, \"b\": [1, 2], \"c\": {}, \"d\": []}");
}

TEST(JsonWriter, LinesLayoutIndentsPerOpenLinesContainer) {
  const std::string doc = render([](JsonWriter& w) {
    w.begin_object(Layout::kLines)
        .key("a").u64(1)
        .key("inline").begin_object()
        .key("rows").begin_array(Layout::kLines).u64(1).u64(2).end_array()
        .end_object()
        .key("rows").begin_array(Layout::kLines)
        .begin_object().key("x").u64(3).end_object()
        .end_array()
        .key("empty").begin_array(Layout::kLines).end_array()
        .end_object();
  });
  EXPECT_EQ(doc,
            "{\n"
            "  \"a\": 1,\n"
            "  \"inline\": {\"rows\": [\n"
            "    1,\n"
            "    2\n"
            "  ]},\n"
            "  \"rows\": [\n"
            "    {\"x\": 3}\n"
            "  ],\n"
            "  \"empty\": []\n"
            "}");
}

TEST(JsonWriter, TopLevelValuesTakeNoSeparator) {
  std::string out = "prefix,";
  JsonWriter w(out);
  w.u64(1);
  out += ',';
  w.value(2.5);
  out += '\n';
  w.begin_object().key("t").u64(3).end_object();
  EXPECT_EQ(out, "prefix,1,2.5\n{\"t\": 3}");
}

}  // namespace
}  // namespace mts::sim
