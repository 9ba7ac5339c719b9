// The JSON document model behind the shard merger: strict parsing,
// literal-preserving round trips, and the emission helpers every
// JSON writer in the repo shares.
#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace setlib {
namespace {

TEST(JsonNumberTest, NonFiniteRendersAsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(42.0), "42");
}

TEST(JsonQuoteTest, EscapesEverythingAParserNeeds) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(json_quote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonQuoteTest, QuotedStringsRoundTripThroughTheParser) {
  const std::string nasty = "we\"ird\\name\nwith\tcontrol\x02 bytes";
  const JsonValue parsed = JsonValue::parse(json_quote(nasty));
  EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(JsonParseTest, NumbersKeepTheirSourceLiteral) {
  EXPECT_EQ(JsonValue::parse("1e3").number_text(), "1e3");
  EXPECT_EQ(JsonValue::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(JsonValue::parse("0.50").number_text(), "0.50");
  EXPECT_EQ(JsonValue::parse("-7").as_int(), -7);
  // Equality is literal equality: merged documents must reproduce the
  // source rendering, not a numerically equal one.
  EXPECT_FALSE(JsonValue::parse("1e3") == JsonValue::parse("1000"));
  EXPECT_TRUE(JsonValue::parse("1e3") == JsonValue::parse("1e3"));
}

TEST(JsonParseTest, DocumentRoundTripsByteForByte) {
  const std::string doc =
      R"({"bench": "x", "cells": 12, "wall": 0.0625, "rows": )"
      R"([{"i": 0, "ok": 1}, {"i": 1, "ok": 0}], "tags": )"
      R"(["a", "b"], "none": null, "flag": true})";
  EXPECT_EQ(JsonValue::parse(doc).dump(), doc);
}

TEST(JsonParseTest, StrictnessRejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1,}"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1, 2"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("nan"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("inf"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("01"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("1 2"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"bad\\escape\""), JsonParseError);
  // Nesting past the depth cap (256) is refused, not recursed into.
  EXPECT_THROW(JsonValue::parse(std::string(200'000, '[') +
                                std::string(200'000, ']')),
               JsonParseError);
  EXPECT_NO_THROW(
      JsonValue::parse(std::string(256, '[') + std::string(256, ']')));
}

TEST(JsonParseTest, UnicodeEscapesDecode) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(JsonObjectTest, DuplicateKeysKeepTheLastValue) {
  const JsonValue doc = JsonValue::parse(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.at("a").as_int(), 3);
  EXPECT_EQ(doc.members()[0].first, "a");  // original position kept
}

TEST(JsonObjectTest, FindAtAndSet) {
  JsonValue doc = JsonValue::object();
  doc.set("k", JsonValue::of(std::int64_t{5}));
  EXPECT_EQ(doc.at("k").as_int(), 5);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), JsonParseError);
  doc.set("k", JsonValue::of("now a string"));
  EXPECT_EQ(doc.at("k").as_string(), "now a string");
  EXPECT_EQ(doc.members().size(), 1u);
}

TEST(JsonValueTest, OfDoubleMatchesJsonNumberRendering) {
  EXPECT_EQ(JsonValue::of(0.5).number_text(), json_number(0.5));
  EXPECT_TRUE(
      JsonValue::of(std::numeric_limits<double>::quiet_NaN()).is_null());
}

TEST(JsonValueTest, AsIntRejectsNonIntegralNumbers) {
  EXPECT_THROW(JsonValue::parse("1.5").as_int(), JsonParseError);
  EXPECT_EQ(JsonValue::parse("1e3").as_int(), 1000);
}

TEST(JsonValueTest, PrettyDumpParsesBack) {
  const JsonValue doc = JsonValue::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {}, "e": []})");
  const JsonValue reparsed = JsonValue::parse(doc.dump(2));
  EXPECT_TRUE(doc == reparsed);
}

}  // namespace
}  // namespace setlib
