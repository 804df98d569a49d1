#include "src/analysis/reliability.h"

#include <atomic>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

namespace probcon {
namespace {

CountPredicate AtMostKFailures(int k) {
  return CountPredicate([k](int failures, int /*n*/) { return failures <= k; });
}

TEST(ReliabilityAnalyzerTest, CountDpMatchesClosedForm) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.1);
  const auto p = analyzer.EventProbability(AtMostKFailures(1), AnalysisMethod::kCountDp);
  const double expected = std::pow(0.9, 5) + 5 * 0.1 * std::pow(0.9, 4);
  EXPECT_NEAR(p.value(), expected, 1e-12);
}

TEST(ReliabilityAnalyzerTest, ExactMatchesCountDp) {
  const std::vector<double> probs = {0.01, 0.05, 0.2, 0.4, 0.07, 0.33};
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(probs);
  for (int k = 0; k <= 6; ++k) {
    const auto dp =
        analyzer.EventProbability(AtMostKFailures(k), AnalysisMethod::kCountDp);
    const auto exact =
        analyzer.EventProbability(AtMostKFailures(k), AnalysisMethod::kExact);
    EXPECT_NEAR(dp.value(), exact.value(), 1e-12) << k;
    EXPECT_NEAR(dp.complement(), exact.complement(),
                std::max(1e-15, exact.complement() * 1e-9))
        << k;
  }
}

TEST(ReliabilityAnalyzerTest, AutoPicksDpForCountPredicates) {
  // A 40-node cluster would be intractable for exact enumeration; auto must route to DP.
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(40, 0.02);
  const auto p = analyzer.EventProbability(AtMostKFailures(5));
  EXPECT_GT(p.value(), 0.99);
}

TEST(ReliabilityAnalyzerTest, ConfigurationPredicateViaExact) {
  // "Node 0 survives": P = 1 - p_0, regardless of others.
  const std::vector<double> probs = {0.25, 0.5, 0.5};
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(probs);
  const ConfigurationPredicate node0_alive(
      [](FailureConfiguration failed, int /*n*/) { return !NodeFailed(failed, 0); });
  EXPECT_NEAR(analyzer.EventProbability(node0_alive).value(), 0.75, 1e-12);
}

TEST(ReliabilityAnalyzerTest, MonteCarloAgreesWithExact) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(7, 0.3);
  const auto exact = analyzer.EventProbability(AtMostKFailures(2));
  MonteCarloOptions options;
  options.trials = 400000;
  const auto ci = analyzer.EstimateEventProbability(AtMostKFailures(2), options);
  EXPECT_GT(exact.value(), ci.low);
  EXPECT_LT(exact.value(), ci.high);
}

TEST(ReliabilityAnalyzerTest, MonteCarloDeterministicForSeed) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.2);
  MonteCarloOptions options;
  options.trials = 10000;
  options.seed = 99;
  const auto a = analyzer.EstimateEventProbability(AtMostKFailures(1), options);
  const auto b = analyzer.EstimateEventProbability(AtMostKFailures(1), options);
  EXPECT_DOUBLE_EQ(a.point, b.point);
}

TEST(ReliabilityAnalyzerTest, CorrelatedModelViaExactEnumeration) {
  auto model = std::make_unique<CommonCauseFailureModel>(
      std::vector<double>(4, 0.01), 0.05, std::vector<double>(4, 0.9));
  const ReliabilityAnalyzer analyzer(std::move(model));
  const auto all_up = analyzer.EventProbability(AtMostKFailures(0), AnalysisMethod::kExact);
  // P(no failure) = 0.95 * 0.99^4 + 0.05 * (0.99*0.1)^4.
  const double expected =
      0.95 * std::pow(0.99, 4) + 0.05 * std::pow(0.99 * 0.1, 4);
  EXPECT_NEAR(all_up.value(), expected, 1e-12);
}

TEST(ReliabilityAnalyzerTest, FailureDomainModelsUseTheirCountLaw) {
  const ReliabilityAnalyzer analyzer(std::make_unique<FailureDomainModel>(
      std::vector<double>{0.01, 0.02, 0.005, 0.01, 0.03}, std::vector<int>{0, 1, 2, 0, 1},
      std::vector<double>{0.002, 0.01, 0.004}));
  const CountPredicate live = MakeRaftLivePredicate(RaftConfig::Standard(5));
  std::atomic<uint64_t> configurations{0};
  const auto automatic =
      analyzer.TryEventProbability(live, AnalysisMethod::kAuto, nullptr, &configurations);
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(configurations.load(), 0u);  // kAuto enumerated nothing.
  const Probability count_dp = analyzer.EventProbability(live, AnalysisMethod::kCountDp);
  EXPECT_EQ(automatic->complement(), count_dp.complement());
  const Probability exact = analyzer.EventProbability(live, AnalysisMethod::kExact);
  EXPECT_NEAR(count_dp.complement(), exact.complement(), 1e-12 * exact.complement());
}

TEST(ReliabilityAnalyzerTest, ModelsWithoutACountLawStillEnumerate) {
  const ReliabilityAnalyzer analyzer(std::make_unique<BetaBinomialFailureModel>(6, 2.0, 18.0));
  EXPECT_FALSE(analyzer.CountLaw().has_value());
  std::atomic<uint64_t> configurations{0};
  ASSERT_TRUE(analyzer
                  .TryEventProbability(AtMostKFailures(2), AnalysisMethod::kAuto, nullptr,
                                       &configurations)
                  .ok());
  EXPECT_EQ(configurations.load(), 64u);  // 2^6: kAuto fell back to enumeration.
}

TEST(ReliabilityReportTest, RaftUnsafeConfigReportsZeroSafety) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.01);
  const RaftConfig broken{5, 2, 2};  // Violates both structural conditions.
  const auto report = AnalyzeRaft(broken, analyzer);
  EXPECT_DOUBLE_EQ(report.safe.value(), 0.0);
  EXPECT_DOUBLE_EQ(report.safe_and_live.value(), 0.0);
  EXPECT_GT(report.live.value(), 0.99);  // Small quorums are trivially live.
}

TEST(ReliabilityReportTest, HeterogeneousClusterBeatsWorstUniform) {
  const auto mixed = ReliabilityAnalyzer::ForIndependentNodes({0.01, 0.01, 0.08});
  const auto uniform_bad = ReliabilityAnalyzer::ForUniformNodes(3, 0.08);
  const auto config = RaftConfig::Standard(3);
  EXPECT_GT(AnalyzeRaft(config, mixed).safe_and_live.value(),
            AnalyzeRaft(config, uniform_bad).safe_and_live.value());
}

TEST(ReliabilityReportTest, PbftSafeAndLiveIsIntersection) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.05);
  const auto config = PbftConfig::Standard(5);
  const auto report = AnalyzePbft(config, analyzer);
  EXPECT_LE(report.safe_and_live.value(), std::min(report.safe.value(), report.live.value()));
  // With nested thresholds the intersection equals the weaker property.
  EXPECT_NEAR(report.safe_and_live.value(), std::min(report.safe.value(), report.live.value()),
              1e-12);
}

TEST(ReliabilityReportTest, MoreNodesSameQuorumHurtsWhenFaultsDominate) {
  // Fix quorums at 3/3, grow n from 5 to 7 at p=30%: liveness improves (more candidates),
  // illustrating the paper's point that quorum geometry, not node count, drives behaviour.
  const RaftConfig q33_n5{5, 3, 3};
  const RaftConfig q33_n7{7, 3, 3};
  const auto live5 =
      AnalyzeRaft(q33_n5, ReliabilityAnalyzer::ForUniformNodes(5, 0.3)).live;
  const auto live7 =
      AnalyzeRaft(q33_n7, ReliabilityAnalyzer::ForUniformNodes(7, 0.3)).live;
  EXPECT_GT(live7.value(), live5.value());
}

TEST(PredicateFactoriesTest, ConsistentWithTheorems) {
  const auto config = PbftConfig::Standard(7);
  const auto safe_predicate = MakePbftSafePredicate(config);
  const auto live_predicate = MakePbftLivePredicate(config);
  const auto both_predicate = MakePbftSafeAndLivePredicate(config);
  for (int byz = 0; byz <= 7; ++byz) {
    EXPECT_EQ(*safe_predicate.HoldsForCount(byz, 7), PbftIsSafe(config, byz));
    EXPECT_EQ(*live_predicate.HoldsForCount(byz, 7), PbftIsLive(config, byz));
    EXPECT_EQ(*both_predicate.HoldsForCount(byz, 7),
              PbftIsSafe(config, byz) && PbftIsLive(config, byz));
  }
}

}  // namespace
}  // namespace probcon
