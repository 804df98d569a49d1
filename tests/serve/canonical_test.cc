// Canonicalization is what makes the memoization cache correct: semantically identical
// requests — reordered fields, different number spellings, defaults spelled out or
// omitted, a fault curve versus its resolved probabilities — must map to the same
// CanonicalKey, and semantically different requests must not.

#include <gtest/gtest.h>

#include <string>

#include "src/common/json.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

// Parses `params_text` as the params object of a `kind` request and returns its cache key.
std::string KeyFor(const std::string& kind, const std::string& params_text) {
  auto params = ParseJson(params_text, "test params");
  EXPECT_TRUE(params.ok()) << params.status().ToString();
  auto kind_value = RequestKindFromName(kind);
  EXPECT_TRUE(kind_value.ok()) << kind_value.status().ToString();
  auto request = ServeRequest::FromParams(*kind_value, *params);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return request->CanonicalKey();
}

Status ErrorFor(const std::string& kind, const std::string& params_text) {
  auto params = ParseJson(params_text, "test params");
  EXPECT_TRUE(params.ok()) << params.status().ToString();
  auto kind_value = RequestKindFromName(kind);
  EXPECT_TRUE(kind_value.ok()) << kind_value.status().ToString();
  return ServeRequest::FromParams(*kind_value, *params).status();
}

TEST(Canonical, FieldOrderDoesNotMatter) {
  EXPECT_EQ(KeyFor("quorum_size",
                   R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "target_live": 0.999})"),
            KeyFor("quorum_size",
                   R"({"target_live": 0.999, "fault": {"p": 0.01, "n": 5}, "protocol": "raft"})"));
}

TEST(Canonical, NumberSpellingDoesNotMatter) {
  EXPECT_EQ(KeyFor("table2", R"({"fault": {"n": 5, "p": 0.01}})"),
            KeyFor("table2", R"({"fault": {"n": 5, "p": 1e-2}})"));
  EXPECT_EQ(KeyFor("table2", R"({"fault": {"n": 5, "p": 0.01}})"),
            KeyFor("table2", R"({"fault": {"n": 5, "p": 0.0100}})"));
}

TEST(Canonical, ExplicitDefaultEqualsOmittedDefault) {
  // table1's default fault probability (p = 0.01) and montecarlo's default trials/seed.
  EXPECT_EQ(KeyFor("table1", R"({"n": 4})"),
            KeyFor("table1", R"({"n": 4, "fault": {"n": 4, "p": 0.01}})"));
  EXPECT_EQ(KeyFor("montecarlo", R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}})"),
            KeyFor("montecarlo",
                   R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01},
                       "trials": 1000000, "seed": 42})"));
}

TEST(Canonical, UniformSpellingEqualsExplicitProbabilities) {
  EXPECT_EQ(KeyFor("table2", R"({"fault": {"n": 3, "p": 0.04}})"),
            KeyFor("table2", R"({"fault": {"probabilities": [0.04, 0.04, 0.04]}})"));
}

TEST(Canonical, CurveSpecEqualsItsResolvedProbabilities) {
  // A constant curve with rate r over window w resolves to p = 1 - exp(-r w) for every
  // node; spelling the same request with explicit probabilities must collide in the cache.
  const std::string curve_key = KeyFor(
      "table2",
      R"({"fault": {"n": 3, "curve": {"kind": "constant", "rate": 0.001}, "age": 0, "window": 100}})");
  auto params = ParseJson(
      R"({"fault": {"n": 3, "curve": {"kind": "constant", "rate": 0.001}, "age": 0, "window": 100}})",
      "test params");
  ASSERT_TRUE(params.ok());
  auto request = ServeRequest::FromParams(RequestKind::kTable2, *params);
  ASSERT_TRUE(request.ok());
  ASSERT_EQ(request->fault.n(), 3);

  Json explicit_params = Json::Object();
  Json fault = Json::Object();
  Json probabilities = Json::Array();
  for (const double p : request->fault.probabilities) {
    probabilities.Append(Json::Number(p));
  }
  fault.Set("probabilities", std::move(probabilities));
  explicit_params.Set("fault", std::move(fault));
  auto explicit_request = ServeRequest::FromParams(RequestKind::kTable2, explicit_params);
  ASSERT_TRUE(explicit_request.ok());
  EXPECT_EQ(curve_key, explicit_request->CanonicalKey());
}

TEST(Canonical, DifferentRequestsGetDifferentKeys) {
  const std::string base = KeyFor("table2", R"({"fault": {"n": 5, "p": 0.01}})");
  EXPECT_NE(base, KeyFor("table2", R"({"fault": {"n": 5, "p": 0.02}})"));
  EXPECT_NE(base, KeyFor("table2", R"({"fault": {"n": 7, "p": 0.01}})"));
  EXPECT_NE(base, KeyFor("table1", R"({"n": 5, "fault": {"n": 5, "p": 0.01}})"));
  EXPECT_NE(KeyFor("montecarlo", R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}})"),
            KeyFor("montecarlo",
                   R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "seed": 43})"));
}

TEST(Canonical, KeyLeadsWithTheKindName) {
  EXPECT_EQ(KeyFor("table1", R"({"n": 4})").rfind("table1 ", 0), 0u);
  EXPECT_EQ(KeyFor("placement",
                   R"({"node_probabilities": [0.01, 0.01, 0.02, 0.02],
                       "rack_probabilities": [0.001, 0.002]})")
                .rfind("placement ", 0),
            0u);
}

TEST(Canonical, KeyIsStableAcrossReparse) {
  // Round-tripping the canonical params through the parser reproduces the same key —
  // canonicalization is idempotent.
  auto params = ParseJson(R"({"fault": {"n": 5, "p": 0.01}, "protocol": "pbft",
                              "target_safe": 0.999, "target_live": 0.99})",
                          "test params");
  ASSERT_TRUE(params.ok());
  auto request = ServeRequest::FromParams(RequestKind::kQuorumSize, *params);
  ASSERT_TRUE(request.ok());
  auto reparsed = ServeRequest::FromParams(RequestKind::kQuorumSize, request->CanonicalParams());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(request->CanonicalKey(), reparsed->CanonicalKey());
}

// --- Edge validation: engine preconditions surface as INVALID_ARGUMENT ------------------

TEST(Validation, RejectsOutOfRangeInputs) {
  EXPECT_EQ(ErrorFor("table1", R"({"n": 3})").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ErrorFor("table2", R"({"fault": {"n": 2, "p": 0.01}})").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ErrorFor("table2", R"({"fault": {"n": 5, "p": 1.5}})").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ErrorFor("quorum_size", R"({"protocol": "zab", "fault": {"n": 5, "p": 0.01}})")
                .code(),
            StatusCode::kInvalidArgument);
  // Placement search-space caps (n <= 10, r <= 5) are enforced at the edge, not by a CHECK.
  EXPECT_EQ(ErrorFor("placement",
                     R"({"node_probabilities": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01,
                                                0.01, 0.01, 0.01, 0.01, 0.01],
                         "rack_probabilities": [0.001, 0.002]})")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ErrorFor("montecarlo",
                     R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 0})")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Validation, RejectsMalformedEnvelopes) {
  EXPECT_FALSE(RequestEnvelope::Parse("not json").ok());
  EXPECT_FALSE(RequestEnvelope::Parse(R"({"v": 2, "id": 1, "kind": "ping"})").ok());
  EXPECT_FALSE(RequestEnvelope::Parse(R"({"v": 1, "id": 1, "kind": "no_such_kind"})").ok());
  // A negative id must not wrap to 2^64-1, and a deadline big enough to overflow the
  // server's int64 microsecond arithmetic is rejected at the edge.
  EXPECT_FALSE(RequestEnvelope::Parse(R"({"v": 1, "id": -1, "kind": "ping"})").ok());
  EXPECT_FALSE(
      RequestEnvelope::Parse(R"({"v": 1, "id": 1, "kind": "ping", "deadline_ms": 1e300})")
          .ok());

  const auto ok = RequestEnvelope::Parse(R"({"v": 1, "id": 7, "kind": "ping"})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->id, 7u);
  EXPECT_EQ(ok->request.kind, RequestKind::kPing);
}

TEST(Validation, ResponseEnvelopeRoundTrips) {
  ResponseEnvelope response;
  response.id = 11;
  response.status = Status();
  response.cached = true;
  response.result = Json::Object();
  response.result.Set("answer", Json::Number(42));

  // The struct form writes exactly what the server's writer does.
  EXPECT_EQ(response.Serialize(),
            ResponseEnvelope::Write(11, Status(), true, false, R"({"answer": 42})", ""));
  const auto parsed = ResponseEnvelope::Parse(response.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, 11u);
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_TRUE(parsed->cached);
  const Json* answer = parsed->result.Find("answer");
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(answer->NumberValue(), 42.0);

  ResponseEnvelope error;
  error.id = 12;
  error.status = Status(StatusCode::kDeadlineExceeded, "deadline expired");
  const auto parsed_error = ResponseEnvelope::Parse(error.Serialize());
  ASSERT_TRUE(parsed_error.ok()) << parsed_error.status().ToString();
  EXPECT_EQ(parsed_error->status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Validation, CorruptResponseStatusFailsParseInsteadOfFabricatingAVerdict) {
  // A status name the writer never emits means the bytes were damaged in flight (the wire
  // format carries no payload checksum); Parse must fail so clients retry, rather than
  // inventing a definite INTERNAL verdict.
  const auto garbled = ResponseEnvelope::Parse(
      R"({"v": 1, "id": 3, "status": "Oc", "cached": false, "result": {}})");
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.status().code(), StatusCode::kUnavailable);

  const auto missing = ResponseEnvelope::Parse(R"({"v": 1, "id": 3, "result": {}})");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace probcon::serve
