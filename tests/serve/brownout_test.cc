// The brownout circuit breaker: sustained shedding trips the breaker, the degradable verb
// (montecarlo) then answers in degraded mode (capped trials, `"degraded": true`) or serve
// stale-but-flagged memo entries through a dedicated admission lane, the `health` verb
// exposes the state machine, and consecutive normal admits close the breaker again.
// Degraded answers are bit-deterministic per seed.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

Json Params(const std::string& text) {
  auto parsed = ParseJson(text, "test params");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

// A montecarlo request asking for far more trials than the degraded cap.
constexpr char kBigMonteCarlo[] =
    R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1048576, "seed": 7})";

std::string HealthState(ServeClient& client) {
  auto health = client.Query("health", Json::Object());
  EXPECT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->status.ok()) << health->status.ToString();
  const Json* state = health->result.Find("state");
  EXPECT_NE(state, nullptr);
  return state == nullptr ? "" : state->text;
}

TEST(BrownoutTest, SustainedSheddingTripsTheBreakerIntoDegradedAnswers) {
  ServerOptions options;
  options.max_inflight = 0;  // Every engine request would shed.
  options.brownout.trip_sheds = 3;
  MetricsRegistry metrics;
  QueryServer server(options, &metrics);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  EXPECT_EQ(HealthState(client), "ready");

  // Below the trip threshold the breaker holds: plain sheds, no degradation.
  for (int i = 0; i < 2; ++i) {
    auto shed = client.Query("montecarlo", Params(kBigMonteCarlo));
    ASSERT_TRUE(shed.ok());
    EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(shed->degraded);
  }
  EXPECT_EQ(HealthState(client), "ready");

  // The third would-shed trips the breaker, and the tripping request itself enters the
  // degraded lane: it answers degraded instead of shedding.
  auto degraded = client.Query("montecarlo", Params(kBigMonteCarlo));
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->status.ok()) << degraded->status.ToString();
  EXPECT_TRUE(degraded->degraded);
  const Json* trials = degraded->result.Find("trials");
  ASSERT_NE(trials, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(trials->NumberValue()), options.brownout.degraded_trials);
  const Json* requested = degraded->result.Find("requested_trials");
  ASSERT_NE(requested, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(requested->NumberValue()), 1048576u);
  ASSERT_NE(degraded->result.Find("ci_width"), nullptr)
      << "a degraded answer must disclose its achieved confidence";
  EXPECT_EQ(HealthState(client), "degraded");
  EXPECT_EQ(metrics.GetCounter("serve.brownout.trips").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.degraded").value(), 1u);
  EXPECT_EQ(metrics.GetGauge("serve.health").value(), 1);
}

TEST(BrownoutTest, NonDegradableKindsStillShedWhileTheBreakerIsOpen) {
  ServerOptions options;
  options.max_inflight = 0;
  options.brownout.trip_sheds = 1;
  QueryServer server(options);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto tripping = client.Query("montecarlo", Params(kBigMonteCarlo));
  ASSERT_TRUE(tripping.ok());
  EXPECT_TRUE(tripping->degraded);  // trip_sheds=1: the first would-shed already degrades

  // table1 and end_to_end are cheap and always answered exactly; they never ride the
  // degraded lane.
  for (const auto& [kind, params] :
       {std::pair<const char*, const char*>{"table1", R"({"n": 4})"},
        {"end_to_end", R"({"protocol": "pbft", "n": 31})"},
        {"end_to_end", R"({"protocol": "raft", "n": 5})"}}) {
    auto shed = client.Query(kind, Params(params));
    ASSERT_TRUE(shed.ok());
    EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted) << kind;
    EXPECT_FALSE(shed->degraded) << kind;
  }
}

TEST(BrownoutTest, DisabledBrownoutAlwaysSheds) {
  ServerOptions options;
  options.max_inflight = 0;
  options.brownout.enabled = false;
  options.brownout.trip_sheds = 1;
  QueryServer server(options);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  for (int i = 0; i < 5; ++i) {
    auto shed = client.Query("montecarlo", Params(kBigMonteCarlo));
    ASSERT_TRUE(shed.ok());
    EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(shed->degraded);
  }
  EXPECT_EQ(HealthState(client), "ready");
}

TEST(BrownoutTest, DegradedAnswersAreBitDeterministicPerSeed) {
  // Two independent servers, identically configured and identically tripped, must serve
  // byte-identical degraded responses: a degraded run keeps the caller's seed.
  auto degraded_response = [](uint64_t request_seed) {
    ServerOptions options;
    options.max_inflight = 0;
    options.brownout.trip_sheds = 1;
    QueryServer server(options);
    const std::string params =
        R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1048576, "seed": )" +
        std::to_string(request_seed) + "}";
    const std::string payload =
        RequestEnvelope::Serialize(1, "montecarlo", Params(params), 0.0, false);
    // With trip_sheds=1 the first would-shed already trips the breaker and answers
    // degraded; the repeat re-computes (degraded runs bypass the memo cache) and must
    // reproduce the same bytes.
    const std::string first = server.Handle(payload);
    const std::string second = server.Handle(payload);
    EXPECT_EQ(first, second);
    return second;
  };

  const std::string first = degraded_response(7);
  EXPECT_EQ(first, degraded_response(7)) << "same seed, same bytes";
  EXPECT_NE(first.find("\"degraded\": true"), std::string::npos) << first;
  // The caller's Monte Carlo seed still selects the stream.
  EXPECT_NE(first, degraded_response(8));
}

TEST(BrownoutTest, StaleMemoEntriesServeFlaggedDuringBrownout) {
  ServerOptions options;
  options.max_inflight = 1;
  options.brownout.trip_sheds = 1;
  options.brownout.recover_admits = 2;
  MetricsRegistry metrics;
  QueryServer server(options, &metrics);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  // Prime the memo with a healthy, exact answer.
  auto primed = client.Query("montecarlo", Params(kBigMonteCarlo));
  ASSERT_TRUE(primed.ok());
  ASSERT_TRUE(primed->status.ok()) << primed->status.ToString();
  EXPECT_FALSE(primed->degraded);

  // Occupy the only inflight slot with a slow request, then trip the breaker with a shed.
  std::mutex mutex;
  std::condition_variable cv;
  bool slow_done = false;
  server.Submit(
      RequestEnvelope::Serialize(
          99, "montecarlo",
          Params(R"({"protocol": "pbft", "fault": {"n": 4, "p": 0.02}, )"
                 R"("trials": 4194304, "seed": 3})"),
          0.0, false),
      [&](std::string) {
        std::lock_guard<std::mutex> lock(mutex);
        slow_done = true;
        cv.notify_all();
      });
  ASSERT_EQ(server.inflight(), 1);

  auto tripping = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(tripping.ok());
  EXPECT_EQ(tripping->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(HealthState(client), "degraded");

  // The primed entry now serves through the degraded lane: stale-but-flagged, with the
  // result bytes of the exact answer.
  auto stale = client.Query("montecarlo", Params(kBigMonteCarlo));
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(stale->status.ok()) << stale->status.ToString();
  EXPECT_TRUE(stale->degraded);
  EXPECT_TRUE(stale->cached);
  EXPECT_EQ(WriteJson(stale->result), WriteJson(primed->result));
  EXPECT_EQ(metrics.GetCounter("serve.degraded.stale").value(), 1u);
  EXPECT_GE(metrics.GetCounter("serve.degraded").value(), 1u);

  // Let the slow request finish, then recover: consecutive normal admits close the
  // breaker and health returns to ready.
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return slow_done; });
  }
  // The done callback fires just before the in-flight count drops; wait for the books.
  while (server.inflight() != 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < options.brownout.recover_admits; ++i) {
    auto normal = client.Query("table1", Params(R"({"n": 4})"));
    ASSERT_TRUE(normal.ok());
    ASSERT_TRUE(normal->status.ok()) << normal->status.ToString();
    EXPECT_FALSE(normal->degraded);
  }
  EXPECT_EQ(HealthState(client), "ready");
  EXPECT_EQ(metrics.GetGauge("serve.health").value(), 0);
}

TEST(BrownoutTest, HealthReportsDrainingOverDegraded) {
  ServerOptions options;
  options.max_inflight = 0;
  options.brownout.trip_sheds = 1;
  QueryServer server(options);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto tripping = client.Query("montecarlo", Params(kBigMonteCarlo));
  ASSERT_TRUE(tripping.ok());
  EXPECT_EQ(HealthState(client), "degraded");

  server.Drain();
  EXPECT_EQ(HealthState(client), "draining") << "draining dominates the breaker state";
}

}  // namespace
}  // namespace probcon::serve
