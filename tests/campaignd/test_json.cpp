// campaignd JSON model: lossless numbers, deterministic emission, and total
// rejection of malformed input (the parser half of the framing fuzz story;
// run under ASan/UBSan in CI).
#include "campaignd/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace json = mts::campaignd::json;
using json::ProtocolError;
using json::Value;

TEST(CampaigndJson, U64RoundTripsLosslessly) {
  // Full-range seeds must never transit double: 2^64-1 is not representable.
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  const Value v = Value::number_u64(big);
  EXPECT_EQ(v.dump(), "18446744073709551615");
  const Value back = json::parse(v.dump());
  EXPECT_EQ(back.as_u64(), big);

  const Value parsed = json::parse("{\"seed\": 18446744073709551615}");
  EXPECT_EQ(parsed.at("seed").as_u64(), big);
  // And the textual form survives re-emission exactly.
  EXPECT_EQ(parsed.dump(), "{\"seed\":18446744073709551615}");
}

TEST(CampaigndJson, DoublesRoundTripExactly) {
  for (const double x : {0.1, 1.0 / 3.0, 1e-300, 12345.678901234567,
                         -0.0078125, 2.2250738585072014e-308}) {
    const Value v = Value::number_double(x);
    EXPECT_EQ(json::parse(v.dump()).as_double(), x) << v.dump();
  }
}

TEST(CampaigndJson, NonFiniteDoublesBecomeZero) {
  EXPECT_EQ(Value::number_double(std::numeric_limits<double>::infinity())
                .as_double(),
            0.0);
  EXPECT_EQ(Value::number_double(std::numeric_limits<double>::quiet_NaN())
                .as_double(),
            0.0);
}

TEST(CampaigndJson, NegativeIntegers) {
  const Value v = Value::number_i64(-42);
  EXPECT_EQ(v.dump(), "-42");
  EXPECT_EQ(json::parse("-42").as_i64(), -42);
  EXPECT_THROW(json::parse("-42").as_u64(), ProtocolError);
}

TEST(CampaigndJson, ObjectKeepsInsertionOrder) {
  Value v = Value::object();
  v.set("zebra", Value::number_i64(1));
  v.set("alpha", Value::number_i64(2));
  v.set("mid", Value::number_i64(3));
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // set() on an existing key replaces in place, preserving position.
  v.set("alpha", Value::number_i64(9));
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(CampaigndJson, StringEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  Value v = Value::object();
  v.set("s", Value(nasty));
  EXPECT_EQ(json::parse(v.dump()).at("s").as_string(), nasty);
}

TEST(CampaigndJson, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\u2603\"").as_string(), "\xe2\x98\x83");
  // Lone surrogates are rejected, not emitted as garbage.
  EXPECT_THROW(json::parse("\"\\ud800\""), ProtocolError);
}

TEST(CampaigndJson, NestedStructuresParse) {
  const Value v = json::parse(
      "{\"a\": [1, 2.5, \"x\", true, false, null], \"b\": {\"c\": []}}");
  EXPECT_EQ(v.at("a").as_array().size(), 6u);
  EXPECT_TRUE(v.at("a").as_array()[3].as_bool());
  EXPECT_TRUE(v.at("a").as_array()[5].is_null());
  EXPECT_EQ(v.at("b").at("c").size(), 0u);
}

TEST(CampaigndJson, AccessorsRejectWrongKinds) {
  const Value v = json::parse("{\"n\": 3, \"s\": \"x\"}");
  EXPECT_THROW(v.at("s").as_u64(), ProtocolError);
  EXPECT_THROW(v.at("n").as_string(), ProtocolError);
  EXPECT_THROW(v.at("missing"), ProtocolError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("n").as_array(), ProtocolError);
  EXPECT_THROW(json::parse("[1]").at("k"), ProtocolError);
}

TEST(CampaigndJson, FractionalRejectedAsInteger) {
  EXPECT_THROW(json::parse("1.5").as_u64(), ProtocolError);
  EXPECT_EQ(json::parse("1.5").as_double(), 1.5);
}

TEST(CampaigndJson, OverflowRejected) {
  // One past 2^64-1.
  EXPECT_THROW(json::parse("18446744073709551616").as_u64(), ProtocolError);
}

TEST(CampaigndJson, OverflowingDoublesRejected) {
  // JSON has no infinity; a literal past the double range must not become
  // one (it would re-encode as 0).
  EXPECT_THROW(json::parse("1e999").as_double(), ProtocolError);
  EXPECT_THROW(json::parse("-1e999").as_double(), ProtocolError);
  EXPECT_THROW(json::parse(R"({"b":1e999})").get_double("b", 1.0),
               ProtocolError);
  // Underflow stays finite: it rounds to zero.
  EXPECT_EQ(json::parse("1e-999").as_double(), 0.0);
}

TEST(CampaigndJson, DepthBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_THROW(json::parse(deep), ProtocolError);
}

TEST(CampaigndJson, MalformedDocumentsAllThrow) {
  const std::vector<std::string> bad = {
      "",           " ",          "{",           "}",
      "[",          "]",          "{\"a\":}",    "{\"a\" 1}",
      "{a: 1}",     "[1,]",       "[1 2]",       "tru",
      "truee",      "nul",        "\"unterminated",
      "\"bad\\q\"", "\"\\u12\"",  "01",          "+1",
      "1e",         "--1",        ".5",          "1.",
      "{} trailing", "[1]]",      "\x80\x81",    "{\"a\":1,}",
  };
  for (const std::string& s : bad) {
    EXPECT_THROW(json::parse(s), ProtocolError) << "input: " << s;
  }
}

TEST(CampaigndJson, GarbageBytesNeverCrash) {
  // Deterministic pseudo-garbage: every parse either succeeds or throws
  // ProtocolError -- no UB (the CI sanitizer job gives this test teeth).
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 200; ++round) {
    std::string s;
    const std::size_t len = (x >> 8) % 64;
    for (std::size_t i = 0; i < len; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      s.push_back(static_cast<char>(x & 0xFF));
    }
    try {
      (void)json::parse(s);
    } catch (const ProtocolError&) {
    }
  }
  SUCCEED();
}

TEST(CampaigndJson, GetWithDefaults) {
  const Value v = json::parse("{\"a\": 3, \"b\": true, \"c\": \"x\"}");
  EXPECT_EQ(v.get_u64("a", 9), 3u);
  EXPECT_EQ(v.get_u64("zz", 9), 9u);
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_FALSE(v.get_bool("zz", false));
  EXPECT_EQ(v.get_string("c", "d"), "x");
  EXPECT_EQ(v.get_string("zz", "d"), "d");
  EXPECT_EQ(v.get_double("a", 0.0), 3.0);
}
