// QueryServer behavior through the loopback transport: memoized answers with the cached
// flag, load shedding at the admission limit, drain semantics, deadline enforcement, the
// inline ping path, the served end_to_end answer, and the exact bytes of every response
// shape.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/engine.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

Json Params(const std::string& text) {
  auto parsed = ParseJson(text, "test params");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

const Json* FindPath(const Json& object, const std::string& outer, const std::string& inner) {
  const Json* level = object.Find(outer);
  return level == nullptr ? nullptr : level->Find(inner);
}

TEST(QueryServerTest, AnswersTable1AndMemoizesTheRepeat) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto first = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->status.ok()) << first->status.ToString();
  EXPECT_FALSE(first->cached);
  const Json* safe_and_live = FindPath(first->result, "report", "safe_and_live");
  ASSERT_NE(safe_and_live, nullptr);
  EXPECT_EQ(safe_and_live->text, "99.94%");  // the regression-locked Table 1 cell

  auto second = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->status.ok());
  EXPECT_TRUE(second->cached);
  // The memoized answer is byte-identical to the computed one.
  EXPECT_EQ(WriteJson(first->result), WriteJson(second->result));

  // A canonically equal spelling hits the same entry.
  auto respelled = client.Query("table1", Params(R"({"fault": {"p": 1e-2, "n": 4}, "n": 4})"));
  ASSERT_TRUE(respelled.ok());
  ASSERT_TRUE(respelled->status.ok());
  EXPECT_TRUE(respelled->cached);

  EXPECT_EQ(server.cache().snapshot().misses, 1u);
}

TEST(QueryServerTest, PingAnswersInlineAndReportsDraining) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping->status.ok());
  const Json* draining = ping->result.Find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->boolean);

  server.Drain();
  ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping->status.ok()) << "pings must succeed while draining";
  draining = ping->result.Find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_TRUE(draining->boolean);
}

TEST(QueryServerTest, ShedsWorkAboveTheAdmissionLimit) {
  ServerOptions options;
  options.max_inflight = 0;  // every non-ping request is over the limit
  MetricsRegistry metrics;
  QueryServer server(options, &metrics);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto shed = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted);

  // Shedding is a reject, not a queue: nothing in flight, and the probe still answers.
  EXPECT_EQ(server.inflight(), 0);
  auto ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->status.ok());
  EXPECT_EQ(metrics.GetCounter("serve.shed").value(), 1u);
}

TEST(QueryServerTest, DrainingServerAnswersUnavailable) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  server.Drain();

  auto rejected = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable);
}

TEST(QueryServerTest, ExpiredDeadlineReturnsDeadlineExceededPromptly) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  // A Monte Carlo run sized to take far longer than the 1 ms deadline; the watchdog fires
  // the token and the sampling loop bails at the next poll instead of wedging the server.
  auto response = client.Query(
      "montecarlo",
      Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824})"),
      /*deadline_ms=*/1.0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);

  // The server is healthy afterwards: a fresh cheap request still answers.
  auto after = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(QueryServerTest, CancelledComputationIsNotCached) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  const std::string params =
      R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824, "seed": 7})";

  auto expired = client.Query("montecarlo", Params(params), /*deadline_ms=*/1.0);
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired->status.code(), StatusCode::kDeadlineExceeded);

  // Same canonical key without a deadline: the error was not memoized, so this retries the
  // computation — observable as a second cache miss (a smaller run would be a lie here, so
  // keep the key identical and only drop the deadline... but 2^30 trials would take
  // minutes, so instead verify via cache stats that the failed attempt stayed out).
  EXPECT_EQ(server.cache().snapshot().entry_count, 0u);
  EXPECT_EQ(server.cache().snapshot().misses, 1u);
}

TEST(QueryServerTest, MalformedPayloadAnswersInvalidArgumentWithRecoveredId) {
  QueryServer server(ServerOptions{});
  const std::string response_text =
      server.Handle(R"({"v": 9, "id": 31, "kind": "table1", "params": {"n": 4}})");
  auto response = ResponseEnvelope::Parse(response_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response->id, 31u);  // recovered from the rejected payload
}

TEST(QueryServerTest, DeeplyNestedPayloadAnswersInvalidArgumentNotCrash) {
  // A nesting bomb ("[[[[...") up to the frame limit must degrade to INVALID_ARGUMENT like
  // any other malformed input — one local client must not be able to crash the daemon.
  QueryServer server(ServerOptions{});
  const std::string response_text = server.Handle(std::string(100000, '['));
  auto response = ResponseEnvelope::Parse(response_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);

  // The server still answers real queries afterwards.
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto after = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

// Each case below must stop at the edge with INVALID_ARGUMENT: PBFT's standard quorums need
// n >= 4, and a joint model describes at most kMaxConfigurationNodes = 64 nodes. Past the
// edge, each would reach a CHECK (PbftConfig::Standard's or a joint model's) and abort the
// daemon, or (PBFT quorum_size) search for quorums that cannot exist.
TEST(QueryServerTest, ValidationErrorsSurfaceAsInvalidArgument) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  const std::string fleet3 = R"("fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}], )"
                             R"("repair_rate": 0.5})";
  std::string row65 = "[0.01";
  for (int i = 1; i < 65; ++i) row65 += ", 0.01";
  row65 += "]";
  const std::pair<std::string, std::string> requests[] = {
      {"table1", R"({"n": 3})"},
      {"quorum_size", R"({"protocol": "pbft", "fault": {"n": 3, "p": 0.01}})"},
      {"table1", R"({"n": 65})"},
      {"table2", R"({"n": 65})"},
      {"quorum_size", R"({"protocol": "raft", "fault": {"n": 65, "p": 0.01}})"},
      {"end_to_end", R"({"protocol": "raft", "n": 65})"},
      {"montecarlo", R"({"protocol": "raft", "fault": {"n": 65, "p": 0.01}, "trials": 1000})"},
      {"montecarlo", R"({"protocol": "raft", "model": {"kind": "beta_binomial", "n": 65, )"
                     R"("alpha": 1, "beta": 50}, "trials": 1000})"},
      {"mission_reliability", R"({"protocol": "raft", "schedule": {"round_hours": 1, )"
                              R"("round_probabilities": [)" + row65 + "]}}"},
      {"end_to_end", R"({"protocol": "pbft", "n": 3})"},
      {"montecarlo", R"({"protocol": "pbft", "fault": {"n": 3, "p": 0.01}, "trials": 1000})"},
      {"montecarlo", R"({"protocol": "pbft", "model": {"kind": "beta_binomial", "n": 3, )"
                     R"("alpha": 1, "beta": 50}, "trials": 1000})"},
      {"availability", R"({"protocol": "pbft", )" + fleet3 + "}"},
      {"mission_reliability", R"({"protocol": "pbft", )" + fleet3 + R"(, "mission_hours": 100})"},
      {"repair_sweep", R"({"protocol": "pbft", )" + fleet3 +
                           R"(, "min_rate": 0.01, "max_rate": 10, "points": 4})"},
      // A joint-consensus window whose new membership has 3 nodes.
      {"availability", R"({"protocol": "pbft", "reconfiguration": true, "fleet": {"classes": )"
                       R"([{"count": 2, "failure_rate": 1e-3, "new": false}, )"
                       R"({"count": 3, "failure_rate": 1e-3}], "repair_rate": 0.5}})"},
  };
  for (const auto& [kind, params] : requests) {
    auto response = client.Query(kind, Params(params));
    ASSERT_TRUE(response.ok()) << kind << " " << params;
    EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument) << kind << " " << params;
  }
  auto table1 = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(table1.ok());
  EXPECT_TRUE(table1->status.ok()) << table1->status.ToString();
}

// The served end_to_end answer, cold and memoized, carries exactly the bytes the engine
// writes for the request.
TEST(QueryServerTest, ServedEndToEndIsByteEqualToTheEngineAnswer) {
  QueryServer server(ServerOptions{});
  uint64_t id = 0;
  for (const char* text :
       {R"({"protocol": "raft", "n": 5})",
        R"({"protocol": "raft", "fault": {"probabilities": [0.01, 0.02, 0.05]}, )"
        R"("window_hours": 1, "mttr_hours": 4, "mission_hours": 1000})",
        R"({"protocol": "pbft", "n": 7, "fault": {"p": 0.02}})",
        R"({"protocol": "pbft", "n": 31, "data_loss_given_violation": 0.5})"}) {
    const Json params = Params(text);
    Result<ServeRequest> request = ServeRequest::FromParams(RequestKind::kEndToEnd, params);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<Json> exact = ExecuteRequest(*request, nullptr);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    const std::string expected = "\"result\": " + WriteJson(*exact) + "}";
    for (int repeat = 0; repeat < 2; ++repeat) {
      const std::string served =
          server.Handle(RequestEnvelope::Serialize(++id, "end_to_end", params, 0.0));
      EXPECT_TRUE(served.ends_with(expected)) << served << "\nexpected: " << expected;
      EXPECT_EQ(served.find("\"cached\": true") != std::string::npos, repeat == 1) << served;
    }
  }
}

// Every response shape the server writes, byte for byte: the result text of the engine (or
// of the cache) inside the fixed envelope layout.
TEST(QueryServerTest, EveryResponseShapeHasExactBytes) {
  const auto engine_text = [](RequestKind kind, const Json& params, uint64_t degraded_trials) {
    Result<ServeRequest> request = ServeRequest::FromParams(kind, params);
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    request->degraded = degraded_trials > 0;
    request->degraded_trials = degraded_trials;
    Result<Json> result = ExecuteRequest(*request, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return WriteJson(*result);
  };
  const auto envelope = [](uint64_t id, const std::string& flags, const std::string& result,
                           const std::string& trace = "") {
    return R"({"v": 1, "id": )" + std::to_string(id) + R"(, "status": "OK", )" + flags +
           R"(, "result": )" + result + trace + "}";
  };

  QueryServer server(ServerOptions{});
  EXPECT_EQ(server.Handle(R"({"v": 1, "id": 1, "kind": "ping", "params": {}})"),
            R"({"v": 1, "id": 1, "status": "OK", "cached": false, )"
            R"("result": {"ok": true, "draining": false}})");

  const Json table1 = Params(R"({"n": 4})");
  const std::string table1_text = engine_text(RequestKind::kTable1, table1, 0);
  EXPECT_EQ(server.Handle(RequestEnvelope::Serialize(2, "table1", table1, 0.0)),
            envelope(2, R"("cached": false)", table1_text));
  // The repeat takes the text-memo path, a respelling the parse path; both answer cached.
  EXPECT_EQ(server.Handle(RequestEnvelope::Serialize(3, "table1", table1, 0.0)),
            envelope(3, R"("cached": true)", table1_text));
  EXPECT_EQ(server.Handle(RequestEnvelope::Serialize(4, "table1", Params(R"({"fault": {"n": 4}})"),
                                                     0.0)),
            envelope(4, R"("cached": true)", table1_text));

  // Traced answers, a hit and a miss, carry their span breakdown after the result; only
  // its durations are not known in advance.
  const Json table2 = Params(R"({"n": 5})");
  const std::string table2_text = engine_text(RequestKind::kTable2, table2, 0);
  for (const auto& [id, params, text, cached] :
       {std::tuple<uint64_t, Json, std::string, bool>{5, table1, table1_text, true},
        {6, table2, table2_text, false}}) {
    const std::string served = server.Handle(RequestEnvelope::Serialize(
        id, cached ? "table1" : "table2", params, 0.0, /*trace=*/true));
    auto parsed = ResponseEnvelope::Parse(served);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(served, envelope(id, cached ? R"("cached": true)" : R"("cached": false)", text,
                               R"(, "trace": )" + WriteJson(parsed->trace)));
    std::string stages;
    for (const Json& stage : parsed->trace.Find("stages")->items) {
      stages += stage.Find("stage")->text + " ";
    }
    EXPECT_EQ(stages, cached ? "parse canonicalize cache " : "parse canonicalize cache engine ");
  }

  // Error messages are escaped into the envelope.
  EXPECT_EQ(server.Handle(R"({"v": 1, "id": 7, "kind": "ta\"ble\t\u0001", "params": {}})"),
            R"({"v": 1, "id": 7, "status": "INVALID_ARGUMENT", )"
            R"("error": "serve request: unknown request kind \"ta\"ble\t\u0001\""})");

  // Brownout: with no normal slot and the breaker tripped by the first shed, montecarlo
  // answers degraded, from the cache when it holds the exact answer (stale) and otherwise
  // from a run capped at degraded_trials.
  ServerOptions options;
  options.max_inflight = 0;
  options.brownout.trip_sheds = 1;
  options.brownout.degraded_trials = 500;
  QueryServer brownout(options);
  const Json stale = Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, )"
                            R"("trials": 1000, "seed": 3})");
  const std::string stale_text = engine_text(RequestKind::kMonteCarlo, stale, 0);
  bool was_cached = false;
  ASSERT_TRUE(brownout.cache()
                  .GetOrCompute(ServeRequest::FromParams(RequestKind::kMonteCarlo, stale)
                                    ->CanonicalKey(),
                                [&]() -> Result<std::string> { return stale_text; },
                                &was_cached)
                  .ok());
  EXPECT_EQ(brownout.Handle(RequestEnvelope::Serialize(8, "montecarlo", stale, 0.0)),
            envelope(8, R"("cached": true, "degraded": true)", stale_text));
  const Json capped = Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, )"
                             R"("trials": 1000, "seed": 4})");
  EXPECT_EQ(brownout.Handle(RequestEnvelope::Serialize(9, "montecarlo", capped, 0.0)),
            envelope(9, R"("cached": false, "degraded": true)",
                     engine_text(RequestKind::kMonteCarlo, capped, 500)));
}

TEST(QueryServerTest, DefaultDeadlineFromOptionsApplies) {
  ServerOptions options;
  options.default_deadline_ms = 1.0;
  QueryServer server(options);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  // No client deadline, but the server-wide default catches the oversized run.
  auto response = client.Query(
      "montecarlo",
      Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace probcon::serve
