// The shared JSON model: parse/serialize round-trips, insertion-order determinism, raw
// number-token preservation, the string escaper, and the typed field readers.

#include "src/common/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace probcon {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  auto parsed = ParseJson(R"({"a": 1, "b": [true, null, "s"], "c": {"d": 2.5}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->IsObject());

  const Json* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->IsNumber());
  EXPECT_EQ(a->NumberValue(), 1.0);

  const Json* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->IsArray());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[0].type, Json::Type::kBool);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].type, Json::Type::kNull);
  EXPECT_TRUE(b->items[2].IsString());
  EXPECT_EQ(b->items[2].text, "s");

  const Json* d = parsed->Find("c")->Find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->NumberValue(), 2.5);
}

TEST(Json, CompactWriterRoundTripsByteIdentically) {
  const std::string compact = R"({"n": 5, "p": 0.01, "tags": ["a", "b"], "on": true})";
  auto parsed = ParseJson(compact);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(WriteJson(*parsed), compact);
}

TEST(Json, NumberTokensSurviveUnchanged) {
  // Numbers keep their raw token: a uint64 seed above 2^53 must not get mangled through a
  // double, and "1e-2" must serialize back exactly as parsed.
  auto parsed = ParseJson(R"({"seed": 18446744073709551615, "p": 1e-2})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(WriteJson(*parsed), R"({"seed": 18446744073709551615, "p": 1e-2})");

  uint64_t seed = 0;
  ASSERT_TRUE(JsonReadUint64(*parsed, "seed", &seed).ok());
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(Json, BuildersSerializeDeterministically) {
  Json object = Json::Object();
  object.Set("name", Json::String("probe"));
  object.Set("count", Json::Number(3));
  Json list = Json::Array();
  list.Append(Json::Number(0.5));
  list.Append(Json::Bool(false));
  object.Set("list", std::move(list));
  object.Set("none", Json::Null());

  const std::string expected =
      R"({"name": "probe", "count": 3, "list": [0.5, false], "none": null})";
  EXPECT_EQ(WriteJson(object), expected);
  EXPECT_EQ(WriteJson(object), WriteJson(object));  // stable across calls
}

TEST(Json, IndentedWriterMatchesTwoSpaceLayout) {
  Json object = Json::Object();
  object.Set("a", Json::Number(1));
  Json inner = Json::Array();
  inner.Append(Json::Number(2));
  object.Set("b", std::move(inner));
  EXPECT_EQ(WriteJson(object, 0),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, StringEscapesRoundTrip) {
  Json object = Json::Object();
  object.Set("text", Json::String("line\nquote\"back\\slash\ttab"));
  const std::string written = WriteJson(object);
  auto reparsed = ParseJson(written);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Find("text")->text, "line\nquote\"back\\slash\ttab");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscapeString("plain"), "plain");
  EXPECT_EQ(JsonEscapeString("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscapeString("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscapeString("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscapeString(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson(R"({"a": })").ok());
  EXPECT_FALSE(ParseJson(R"({"a": 1} trailing)").ok());
  EXPECT_FALSE(ParseJson(R"([1, 2,])").ok());
  // The `what` label lands in the error message.
  const Status status = ParseJson("nope", "serve request").status();
  EXPECT_NE(status.message().find("serve request"), std::string::npos);
}

TEST(Json, RejectsExcessiveNestingInsteadOfOverflowingTheStack) {
  // The parser recurses per container level, so depth is capped: a frame full of '['
  // must come back as INVALID_ARGUMENT, not a stack overflow.
  const std::string bomb(100000, '[');
  const Status deep = ParseJson(bomb, "serve request").status();
  EXPECT_EQ(deep.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep.message().find("nesting"), std::string::npos);

  // Objects count against the same limit.
  std::string objects;
  for (int i = 0; i < 200; ++i) objects += R"({"a": )";
  EXPECT_EQ(ParseJson(objects).status().code(), StatusCode::kInvalidArgument);

  // Exactly at the 64-level limit still parses; one more level is rejected.
  std::string at_limit = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(ParseJson(at_limit).ok());
  std::string over_limit = std::string(65, '[') + std::string(65, ']');
  EXPECT_FALSE(ParseJson(over_limit).ok());
}

TEST(Json, IntReadersRejectValuesOutsideIntRange) {
  auto parsed = ParseJson(R"({"big": 1e300, "small": -1e300, "edge": 2147483648,
                              "list": [1, 1e300]})");
  ASSERT_TRUE(parsed.ok());
  int n = 0;
  EXPECT_EQ(JsonReadInt(*parsed, "big", &n).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonReadInt(*parsed, "small", &n).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonReadInt(*parsed, "edge", &n).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(n, 0);  // *out untouched on rejection
  std::vector<int> list;
  EXPECT_EQ(JsonReadIntList(*parsed, "list", &list).code(), StatusCode::kInvalidArgument);
}

TEST(Json, Uint64ReaderRejectsSignsFractionsAndExponents) {
  auto parsed = ParseJson(R"({"neg": -1, "frac": 1.5, "exp": 1e3, "ok": 7})");
  ASSERT_TRUE(parsed.ok());
  uint64_t value = 0;
  // strtoull would wrap "-1" to 18446744073709551615; the reader must reject it instead.
  EXPECT_EQ(JsonReadUint64(*parsed, "neg", &value).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonReadUint64(*parsed, "frac", &value).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonReadUint64(*parsed, "exp", &value).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(JsonReadUint64(*parsed, "ok", &value).ok());
  EXPECT_EQ(value, 7u);

  // 2^64 is out of range, not silently truncated.
  auto huge = ParseJson(R"({"seed": 18446744073709551616})");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(JsonReadUint64(*huge, "seed", &value).code(), StatusCode::kInvalidArgument);
}

TEST(Json, TypedReadersApplyDefaultsAndTypeCheck) {
  auto parsed = ParseJson(R"({"n": 5, "p": 0.25, "name": "x", "flag": true,
                              "ids": [1, 2], "weights": [0.5, 1.5]})");
  ASSERT_TRUE(parsed.ok());

  int n = -1;
  double p = -1.0;
  std::string name;
  bool flag = false;
  std::vector<int> ids;
  std::vector<double> weights;
  EXPECT_TRUE(JsonReadInt(*parsed, "n", &n).ok());
  EXPECT_TRUE(JsonReadDouble(*parsed, "p", &p).ok());
  EXPECT_TRUE(JsonReadString(*parsed, "name", &name).ok());
  EXPECT_TRUE(JsonReadBool(*parsed, "flag", &flag).ok());
  EXPECT_TRUE(JsonReadIntList(*parsed, "ids", &ids).ok());
  EXPECT_TRUE(JsonReadDoubleList(*parsed, "weights", &weights).ok());
  EXPECT_EQ(n, 5);
  EXPECT_EQ(p, 0.25);
  EXPECT_EQ(name, "x");
  EXPECT_TRUE(flag);
  EXPECT_EQ(ids, (std::vector<int>{1, 2}));
  EXPECT_EQ(weights, (std::vector<double>{0.5, 1.5}));

  // Missing key: *out untouched (callers pre-load defaults).
  int untouched = 42;
  EXPECT_TRUE(JsonReadInt(*parsed, "absent", &untouched).ok());
  EXPECT_EQ(untouched, 42);

  // Present but mistyped: InvalidArgument naming the key.
  const Status mistyped = JsonReadInt(*parsed, "name", &n, "test doc");
  EXPECT_EQ(mistyped.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mistyped.message().find("name"), std::string::npos);
}

TEST(Json, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.01), "0.01");
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.1 + 0.2), FormatDouble(0.30000000000000004));
}

}  // namespace
}  // namespace probcon
