// The resilience layer: decorrelated-jitter backoff, the retry policy (transport
// failures and retryable envelope statuses retry; definite verdicts do not), retry
// budgets, call deadlines, and hedged batches — all against scripted fake channels, so
// every schedule is deterministic.

#include "src/serve/client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

// A fake that answers a batch one request at a time, in order; the first request it
// cannot answer fails the whole exchange, as a broken connection would. A query is a batch
// of one, so each call below is one request.
class PerRequestChannel : public Channel {
 public:
  Result<std::vector<std::string>> RoundTripBatch(
      const std::vector<std::string>& payloads) final {
    std::vector<std::string> responses;
    for (const std::string& payload : payloads) {
      Result<std::string> response = Answer(payload);
      if (!response.ok()) return response.status();
      responses.push_back(*std::move(response));
    }
    return responses;
  }

 protected:
  virtual Result<std::string> Answer(const std::string& payload) = 0;
};

// Answers every request with a scripted per-call status: entry i of `script` decides
// call i (OK echoes a trivial result; other codes build an error envelope; kUnavailable
// with `transport_error` fails the exchange itself instead). Off-script calls answer OK.
class ScriptedChannel final : public PerRequestChannel {
 public:
  struct Step {
    StatusCode code = StatusCode::kOk;
    bool transport_error = false;
  };

  ScriptedChannel(std::vector<Step> script, int* calls) : script_(std::move(script)),
                                                          calls_(calls) {}

  Result<std::string> Answer(const std::string& payload) override {
    const int call = (*calls_)++;
    const Step step = call < static_cast<int>(script_.size()) ? script_[call] : Step{};
    if (step.transport_error) {
      return UnavailableError("scripted transport failure");
    }
    Result<RequestEnvelope> request = RequestEnvelope::Parse(payload);
    if (!request.ok()) return request.status();
    ResponseEnvelope response;
    response.id = request->id;
    if (step.code == StatusCode::kOk) {
      response.result = Json::Object();
    } else {
      response.status = Status(step.code, "scripted status");
    }
    return response.Serialize();
  }

 private:
  std::vector<Step> script_;
  int* calls_;
};

// Answers call i with the handcrafted wire payload `payloads[i]` verbatim; off-script
// calls echo a clean OK envelope for the request. The call counter is shared across
// reconnects, so corruption scripts survive the client dialing a fresh channel.
class RawChannel final : public PerRequestChannel {
 public:
  RawChannel(std::vector<std::string> payloads, int* calls)
      : payloads_(std::move(payloads)), calls_(calls) {}

  Result<std::string> Answer(const std::string& request) override {
    const int call = (*calls_)++;
    if (call < static_cast<int>(payloads_.size())) {
      return payloads_[call];
    }
    Result<RequestEnvelope> parsed = RequestEnvelope::Parse(request);
    if (!parsed.ok()) return parsed.status();
    ResponseEnvelope response;
    response.id = parsed->id;
    response.result = Json::Object();
    return response.Serialize();
  }

 private:
  std::vector<std::string> payloads_;
  int* calls_;
};

ResilientClient::ChannelFactory RawFactory(std::vector<std::string> payloads, int* calls) {
  return [payloads = std::move(payloads), calls]() -> Result<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(std::make_unique<RawChannel>(payloads, calls));
  };
}

// A channel whose exchange blocks for `stall_ms`, then fails — the hedging trigger.
class StallingChannel final : public PerRequestChannel {
 public:
  explicit StallingChannel(double stall_ms) : stall_ms_(stall_ms) {}
  Result<std::string> Answer(const std::string&) override {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(stall_ms_ * 1000.0)));
    return UnavailableError("stalled exchange gave up");
  }

 private:
  double stall_ms_;
};

ResilientClient::ChannelFactory ScriptedFactory(std::vector<ScriptedChannel::Step> script,
                                                int* calls) {
  // Each dial returns a channel sharing the same call counter, so the script indexes
  // calls across reconnects.
  return [script = std::move(script), calls]() -> Result<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(std::make_unique<ScriptedChannel>(script, calls));
  };
}

TEST(Backoff, DecorrelatedJitterStaysInEnvelopeAndIsDeterministic) {
  Rng a(42), b(42);
  double prev_a = 0.0, prev_b = 0.0;
  for (int step = 0; step < 100; ++step) {
    const double next_a = DecorrelatedJitterBackoffMs(a, 2.0, 250.0, prev_a);
    const double next_b = DecorrelatedJitterBackoffMs(b, 2.0, 250.0, prev_b);
    EXPECT_EQ(next_a, next_b) << "same seed, same schedule";
    EXPECT_GE(next_a, 2.0);
    EXPECT_LE(next_a, 250.0);
    // Decorrelated growth: each step is bounded by 3x the previous one, with the base
    // standing in for "previous" on the first step.
    EXPECT_LE(next_a, 3.0 * std::max(prev_a, 2.0) + 1e-9);
    prev_a = next_a;
    prev_b = next_b;
  }
}

TEST(Retry, TransportFailuresRetryOnAFreshChannelUntilSuccess) {
  int calls = 0;
  MetricsRegistry metrics;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  options.max_backoff_ms = 0.5;
  ResilientClient client(
      ScriptedFactory({{StatusCode::kUnavailable, /*transport_error=*/true},
                       {StatusCode::kUnavailable, /*transport_error=*/true},
                       {StatusCode::kOk, false}},
                      &calls),
      options, &metrics);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(metrics.GetCounter("serve.client.retries").value(), 2u);
}

TEST(Retry, RetryableEnvelopeStatusesRetryOnTheSameChannel) {
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      ScriptedFactory({{StatusCode::kResourceExhausted, false},
                       {StatusCode::kUnavailable, false},
                       {StatusCode::kOk, false}},
                      &calls),
      options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(client.retries(), 2u);
}

TEST(Retry, DefiniteVerdictsAreNeverRetried) {
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(ScriptedFactory({{StatusCode::kInvalidArgument, false}}, &calls),
                         options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.retries(), 0u);
}

TEST(Retry, ExhaustedAttemptsReturnTheLastRetryableStatus) {
  int calls = 0;
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      ScriptedFactory(std::vector<ScriptedChannel::Step>(
                          8, {StatusCode::kResourceExhausted, false}),
                      &calls),
      options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, BudgetCapsRetriesAcrossCalls) {
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  options.retry_budget = 1;  // One retry for the client's whole lifetime.
  ResilientClient client(
      ScriptedFactory(std::vector<ScriptedChannel::Step>(
                          8, {StatusCode::kUnavailable, /*transport_error=*/true}),
                      &calls),
      options);

  Result<ResponseEnvelope> first = client.Query("ping", Json::Object());
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(client.retries(), 1u);  // Budget spent.

  Result<ResponseEnvelope> second = client.Query("ping", Json::Object());
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(client.retries(), 1u);  // No budget left: first failure is final.
}

TEST(Retry, GarbledStatusNameIsWireCorruptionNotAVerdict) {
  // Call 0 answers with a well-framed envelope whose status name the writer never emits —
  // the signature of in-flight payload corruption. The client must discard the connection
  // and retry, and the clean second call must succeed.
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      RawFactory({R"({"v": 1, "id": 1, "status": "Oc", "cached": false, "result": {}})"},
                 &calls),
      options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(client.retries(), 1u);
}

TEST(Retry, PersistentCorruptionExhaustsToUnavailableNotInternal) {
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      RawFactory(std::vector<std::string>(
                     8, R"({"v": 1, "id": 1, "status": "Oc", "cached": false, "result": {}})"),
                 &calls),
      options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
}

TEST(Retry, MismatchedResponseIdIsRetriedAsCorruption) {
  // Call 0 answers a valid OK envelope carrying a foreign id (garbled id digits); the
  // client cannot correlate it with the request, so it must be treated as corruption.
  int calls = 0;
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      RawFactory({R"({"v": 1, "id": 999999, "status": "OK", "cached": false, "result": {}})"},
                 &calls),
      options);

  Result<ResponseEnvelope> response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(client.retries(), 1u);
}

TEST(Retry, CallDeadlineBoundsTheRetryLoop) {
  // Every attempt stalls 5ms then fails: the 30ms call deadline expires after a handful
  // of attempts, long before max_attempts.
  RetryOptions options;
  options.max_attempts = 100;
  options.initial_backoff_ms = 1.0;
  options.max_backoff_ms = 2.0;
  ResilientClient client(
      []() -> Result<std::unique_ptr<Channel>> {
        return std::unique_ptr<Channel>(std::make_unique<StallingChannel>(/*stall_ms=*/5.0));
      },
      options);

  // This test measures wall-time policy itself (the deadline must bound the loop), so the
  // monotonic clock is the subject, not a determinism leak.
  // NOLINTNEXTLINE(probcon-determinism): timing the deadline-bounded retry loop.
  const auto start = std::chrono::steady_clock::now();
  Result<ResponseEnvelope> response = client.Query("ping", Json::Object(),
                                                   /*deadline_ms=*/30.0);
  const double elapsed_ms =
      // NOLINTNEXTLINE(probcon-determinism): timing the deadline-bounded retry loop.
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_LT(elapsed_ms, 1000.0) << "the loop must stop near the deadline, not run "
                                   "max_attempts to completion";
}

TEST(RetryBatch, ExhaustedItemsStillGetDefiniteEnvelopes) {
  int calls = 0;
  RetryOptions options;
  options.max_attempts = 2;
  options.initial_backoff_ms = 0.1;
  ResilientClient client(
      ScriptedFactory(std::vector<ScriptedChannel::Step>(
                          8, {StatusCode::kUnavailable, /*transport_error=*/true}),
                      &calls),
      options);

  std::vector<ServeClient::BatchItem> items(2);
  items[0].kind = items[1].kind = "ping";
  items[0].params = items[1].params = Json::Object();
  Result<std::vector<ResponseEnvelope>> batch = client.QueryBatch(items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  for (const ResponseEnvelope& envelope : *batch) {
    EXPECT_EQ(envelope.status.code(), StatusCode::kUnavailable)
        << envelope.status.ToString();
  }
}

TEST(RetryBatch, HedgeRacesAStalledPrimaryAndWins) {
  // First dial: a channel that stalls far longer than the hedge delay. Second dial (the
  // hedge): a healthy scripted channel. The batch must resolve via the hedge.
  int scripted_calls = 0;
  int dials = 0;
  MetricsRegistry metrics;
  RetryOptions options;
  options.max_attempts = 1;  // No retries: only the hedge can save the call.
  options.hedge_delay_ms = 5.0;
  auto factory = [&]() -> Result<std::unique_ptr<Channel>> {
    if (dials++ == 0) {
      return std::unique_ptr<Channel>(std::make_unique<StallingChannel>(/*stall_ms=*/200.0));
    }
    return std::unique_ptr<Channel>(
        std::make_unique<ScriptedChannel>(std::vector<ScriptedChannel::Step>{},
                                          &scripted_calls));
  };
  ResilientClient client(factory, options, &metrics);

  std::vector<ServeClient::BatchItem> items(1);
  items[0].kind = "ping";
  items[0].params = Json::Object();
  Result<std::vector<ResponseEnvelope>> batch = client.QueryBatch(items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status.ToString();
  EXPECT_EQ(client.hedges(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.client.hedges").value(), 1u);
  EXPECT_EQ(dials, 2);
}

}  // namespace
}  // namespace probcon::serve
