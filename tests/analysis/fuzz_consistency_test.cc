// Randomized cross-strategy consistency checks: for arbitrary heterogeneous clusters and
// arbitrary count-threshold predicates, the exact 2^N enumeration, the Poisson-binomial DP
// and Monte Carlo must all agree (within their respective error bars).
// This is the fuzz layer guarding the analyzer's three code paths against divergence.

#include <gtest/gtest.h>

#include "src/analysis/reliability.h"
#include "src/common/rng.h"

namespace probcon {
namespace {

std::vector<double> RandomProbabilities(Rng& rng, int n) {
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) {
    // Mix of scales: some very reliable, some terrible.
    const double magnitude = -4.0 * rng.NextDouble();
    probs.push_back(std::min(0.95, std::pow(10.0, magnitude)));
  }
  return probs;
}

class FuzzConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzConsistencyTest, ExactMatchesCountDp) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextBelow(14));
  const auto probs = RandomProbabilities(rng, n);
  const int threshold = static_cast<int>(rng.NextBelow(n + 1));
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(probs);
  const CountPredicate predicate(
      [threshold](int failures, int /*nodes*/) { return failures <= threshold; });
  const auto exact = analyzer.EventProbability(predicate, AnalysisMethod::kExact);
  const auto dp = analyzer.EventProbability(predicate, AnalysisMethod::kCountDp);
  EXPECT_NEAR(exact.value(), dp.value(), 1e-11) << "n=" << n << " k=" << threshold;
  EXPECT_NEAR(exact.complement(), dp.complement(),
              std::max(1e-13, dp.complement() * 1e-8));
}

TEST_P(FuzzConsistencyTest, MonteCarloWithinInterval) {
  Rng rng(GetParam() * 31 + 7);
  const int n = 3 + static_cast<int>(rng.NextBelow(8));
  const auto probs = RandomProbabilities(rng, n);
  const int threshold = static_cast<int>(rng.NextBelow(n));
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(probs);
  const CountPredicate predicate(
      [threshold](int failures, int /*nodes*/) { return failures <= threshold; });
  const double exact = analyzer.EventProbability(predicate).value();
  MonteCarloOptions options;
  options.trials = 60'000;
  options.seed = GetParam();
  const auto ci = analyzer.EstimateEventProbability(predicate, options);
  // Wilson 95% interval, widened slightly for the multiple-comparison sweep.
  EXPECT_GE(exact, ci.low - 0.01);
  EXPECT_LE(exact, ci.high + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConsistencyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace probcon
