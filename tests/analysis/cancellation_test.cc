// Cooperative cancellation in the analysis engines: the Try* APIs return kCancelled
// promptly once a token fires, and an uncancelled run is bit-identical to the plain API —
// the serving layer's deadline story rests on both halves.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/analysis/placement.h"
#include "src/analysis/reliability.h"
#include "src/common/cancellation.h"

namespace probcon {
namespace {

// Waits, with a generous bound, until `progress` reads non-zero: the engine is then inside
// a running chunk, so the cancel that follows must be seen by a poll there. False on
// timeout, which fails the test instead of hanging it.
bool WaitForProgress(const std::atomic<uint64_t>& progress) {
  for (int naps = 0; naps < 60'000; ++naps) {  // At least a minute of 1 ms naps.
    if (progress.load() > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(Cancellation, PreFiredTokenCancelsExactEnumeration) {
  // n = 20 forces the 2^n exact path to do real work; a pre-cancelled token must stop it
  // at the first poll instead of enumerating a million configurations.
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(20, 0.01);
  const ConfigurationPredicate predicate(
      [](FailureConfiguration, int) { return true; });  // no count fast path => kExact

  CancelToken token;
  token.Cancel();
  const auto result =
      analyzer.TryEventProbability(predicate, AnalysisMethod::kExact, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, PreFiredTokenCancelsMonteCarlo) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.01);
  const auto config = RaftConfig::Standard(5);
  MonteCarloOptions options;
  options.trials = 1'000'000;
  CancelToken token;
  token.Cancel();
  options.cancel = &token;

  const auto result =
      analyzer.TryEstimateEventProbability(MakeRaftLivePredicate(config), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, MidFlightCancelStopsALongMonteCarloRun) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(7, 0.02);
  const auto config = RaftConfig::Standard(7);
  MonteCarloOptions options;
  options.trials = uint64_t{1} << 30;  // minutes of work if allowed to finish
  CancelToken token;
  std::atomic<uint64_t> trials{0};
  options.cancel = &token;
  options.progress = &trials;

  std::thread runner([&] {
    const auto result =
        analyzer.TryEstimateEventProbability(MakeRaftLivePredicate(config), options);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  const bool started = WaitForProgress(trials);
  token.Cancel();
  runner.join();
  EXPECT_TRUE(started) << "no trial was counted within the wait bound";
  EXPECT_LT(trials.load(), options.trials);
}

TEST(Cancellation, PreFiredTokenCancelsPlacementSearch) {
  CancelToken token;
  token.Cancel();
  const auto result = TryOptimizeRackPlacement(std::vector<double>(10, 0.01),
                                               std::vector<double>(5, 0.001), &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Cancellation, MidFlightCancelStopsALongPlacementSearch) {
  // The largest admitted search: 5^10 assignments, each a count law evaluated inside the
  // search's ParallelReduce — about 1.7 s on 4 threads if the token were ignored, against
  // the few milliseconds this test takes.
  CancelToken token;
  std::atomic<uint64_t> assignments{0};
  std::thread runner([&] {
    const auto result = TryOptimizeRackPlacement(
        std::vector<double>(10, 0.01), std::vector<double>(5, 0.001), &token, &assignments);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  const bool started = WaitForProgress(assignments);
  token.Cancel();
  runner.join();
  EXPECT_TRUE(started) << "no assignment was counted within the wait bound";
  EXPECT_LT(assignments.load(), uint64_t{9'765'625});
}

TEST(Cancellation, UncancelledTryApisMatchThePlainApisBitForBit) {
  // The cancellation seam must not perturb results: with no token (or an unfired one) the
  // Try* variants perform exactly the same work in the same order.
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.03);
  const auto config = PbftConfig::Standard(5);
  const CountPredicate predicate = MakePbftSafeAndLivePredicate(config);

  const Probability plain = analyzer.EventProbability(predicate);
  const auto with_null_token = analyzer.TryEventProbability(predicate);
  ASSERT_TRUE(with_null_token.ok());
  EXPECT_EQ(with_null_token->complement(), plain.complement());

  CancelToken unfired;
  const auto with_live_token =
      analyzer.TryEventProbability(predicate, AnalysisMethod::kAuto, &unfired);
  ASSERT_TRUE(with_live_token.ok());
  EXPECT_EQ(with_live_token->complement(), plain.complement());

  MonteCarloOptions options;
  options.trials = 200'000;
  options.seed = 9;
  const ConfidenceInterval plain_estimate =
      analyzer.EstimateEventProbability(predicate, options);
  options.cancel = &unfired;
  const auto tracked_estimate = analyzer.TryEstimateEventProbability(predicate, options);
  ASSERT_TRUE(tracked_estimate.ok());
  EXPECT_EQ(tracked_estimate->point, plain_estimate.point);
  EXPECT_EQ(tracked_estimate->low, plain_estimate.low);
  EXPECT_EQ(tracked_estimate->high, plain_estimate.high);

  const ReliabilityReport plain_pbft = AnalyzePbft(config, analyzer);
  const auto tracked_pbft = TryAnalyzePbft(config, analyzer, AnalysisMethod::kAuto, &unfired);
  ASSERT_TRUE(tracked_pbft.ok());
  EXPECT_EQ(tracked_pbft->safe.complement(), plain_pbft.safe.complement());
  EXPECT_EQ(tracked_pbft->live.complement(), plain_pbft.live.complement());
  EXPECT_EQ(tracked_pbft->safe_and_live.complement(), plain_pbft.safe_and_live.complement());

  const auto raft_config = RaftConfig::Standard(5);
  const ReliabilityReport plain_raft = AnalyzeRaft(raft_config, analyzer, AnalysisMethod::kExact);
  const auto tracked_raft =
      TryAnalyzeRaft(raft_config, analyzer, AnalysisMethod::kExact, &unfired);
  ASSERT_TRUE(tracked_raft.ok());
  EXPECT_EQ(tracked_raft->safe.complement(), plain_raft.safe.complement());
  EXPECT_EQ(tracked_raft->live.complement(), plain_raft.live.complement());
  EXPECT_EQ(tracked_raft->safe_and_live.complement(), plain_raft.safe_and_live.complement());

  const std::vector<double> nodes = {0.01, 0.02, 0.005, 0.01, 0.03};
  const std::vector<double> racks = {0.002, 0.01, 0.004};
  const PlacementResult plain_placement = OptimizeRackPlacement(nodes, racks);
  std::atomic<uint64_t> assignments{0};
  const auto tracked_placement = TryOptimizeRackPlacement(nodes, racks, &unfired, &assignments);
  ASSERT_TRUE(tracked_placement.ok());
  EXPECT_EQ(tracked_placement->rack_of, plain_placement.rack_of);
  EXPECT_EQ(tracked_placement->safe_and_live.complement(),
            plain_placement.safe_and_live.complement());
  EXPECT_EQ(assignments.load(), 243u);  // r^n assignments, one count law each.
}

}  // namespace
}  // namespace probcon
