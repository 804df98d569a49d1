#include "src/analysis/placement.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace probcon {
namespace {

TEST(PlacementTest, EvaluateMatchesDirectModel) {
  const std::vector<double> base(3, 0.01);
  const std::vector<double> racks = {0.02, 0.02, 0.02};
  // Fully spread: each node its own rack -> effectively independent with combined p.
  const auto spread = EvaluateRackPlacement(base, racks, {0, 1, 2});
  const double combined = 1.0 - (1.0 - 0.01) * (1.0 - 0.02);
  const auto independent = AnalyzeRaft(
      RaftConfig::Standard(3),
      ReliabilityAnalyzer::ForUniformNodes(3, combined));
  EXPECT_NEAR(spread.complement(), independent.safe_and_live.complement(),
              1e-12 * independent.safe_and_live.complement());
}

// Standard-quorum Raft S&L of `rack_of` by enumerating its 2^n configurations.
Probability EnumeratedSafeAndLive(const std::vector<double>& base,
                                  const std::vector<double>& racks,
                                  const std::vector<int>& rack_of) {
  const ReliabilityAnalyzer analyzer(std::make_unique<FailureDomainModel>(base, rack_of, racks));
  return AnalyzeRaft(RaftConfig::Standard(static_cast<int>(base.size())), analyzer,
                     AnalysisMethod::kExact)
      .safe_and_live;
}

TEST(PlacementTest, CountLawKeepsTheSmallComplement) {
  // The exact complement, from rational arithmetic on these doubles, is printed by
  // tools/exact_complements.py.
  constexpr double kExactComplement = 7.6132004045369393e-15;
  const std::vector<double> base = {1e-6, 2e-6, 5e-7, 1e-6, 3e-6, 1e-6, 2e-6};
  const std::vector<double> racks = {1e-9, 1e-8, 1e-7};
  const std::vector<int> rack_of = {0, 1, 2, 0, 1, 2, 0};
  EXPECT_NEAR(EvaluateRackPlacement(base, racks, rack_of).complement(), kExactComplement,
              1e-12 * kExactComplement);
  EXPECT_NEAR(EnumeratedSafeAndLive(base, racks, rack_of).complement(), kExactComplement,
              1e-12 * kExactComplement);
}

TEST(PlacementTest, WinnerIsOptimalUnderEnumeration) {
  // The search's winner, checked against a brute-force minimum of the enumerated
  // complement over every assignment. Ties in exact arithmetic may go either way, so the
  // winner must only be within rounding of the least complement.
  Rng rng(4242);
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(std::log(lo) + rng.NextDouble() * (std::log(hi) - std::log(lo)));
  };
  for (int c = 0; c < 40; ++c) {
    const int n = static_cast<int>(rng.NextInRange(2, 6));
    const int r = static_cast<int>(rng.NextInRange(1, 3));
    std::vector<double> base(static_cast<size_t>(n));
    for (double& p : base) p = log_uniform(1e-4, 0.1);
    std::vector<double> racks(static_cast<size_t>(r));
    for (double& q : racks) q = log_uniform(1e-5, 0.05);

    double least = 1.0;
    std::vector<int> rack_of(static_cast<size_t>(n), 0);
    while (true) {
      least = std::min(least, EnumeratedSafeAndLive(base, racks, rack_of).complement());
      int node = 0;
      while (node < n && ++rack_of[node] == r) rack_of[node++] = 0;
      if (node == n) break;
    }
    const PlacementResult best = OptimizeRackPlacement(base, racks);
    EXPECT_NEAR(EnumeratedSafeAndLive(base, racks, best.rack_of).complement(), least,
                1e-12 * least)
        << "case " << c << " (n = " << n << ", r = " << r << ")";
  }
}

TEST(PlacementTest, SpreadBeatsPacked) {
  const std::vector<double> base(5, 0.005);
  const std::vector<double> racks = {0.01, 0.01, 0.01, 0.01, 0.01};
  const auto spread = EvaluateRackPlacement(base, racks, {0, 1, 2, 3, 4});
  const auto packed = EvaluateRackPlacement(base, racks, {0, 0, 0, 0, 0});
  EXPECT_GT(spread.value(), packed.value());
}

TEST(PlacementTest, OptimizerFindsFullSpreadWithEqualRacks) {
  const std::vector<double> base(5, 0.005);
  const std::vector<double> racks = {0.01, 0.01, 0.01, 0.01, 0.01};
  const auto best = OptimizeRackPlacement(base, racks);
  // Every node in its own rack (any permutation); check all racks distinct.
  std::vector<int> sorted = best.rack_of;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(best.safe_and_live <
               EvaluateRackPlacement(base, racks, {0, 1, 2, 3, 4}));
}

TEST(PlacementTest, OptimizerAvoidsTheBadRack) {
  // Three racks, one of which is a disaster: with 3 nodes and 2 good racks, the optimizer
  // must put at most... it must never use rack 2 beyond necessity. With 2 good racks and 3
  // nodes, majority=2: losing a good rack with 2 nodes kills the quorum, so the best split
  // uses the bad rack for at most the minority.
  const std::vector<double> base(3, 0.001);
  const std::vector<double> racks = {0.001, 0.001, 0.2};
  const auto best = OptimizeRackPlacement(base, racks);
  const int in_bad_rack = static_cast<int>(
      std::count(best.rack_of.begin(), best.rack_of.end(), 2));
  EXPECT_LE(in_bad_rack, 1);
  // And the chosen placement beats naive round-robin across all three racks when the
  // round-robin puts a node on the bad rack.
  const auto round_robin = EvaluateRackPlacement(base, racks, {0, 1, 2});
  EXPECT_FALSE(best.safe_and_live < round_robin);
}

TEST(PlacementTest, TwoRacksCannotBeatPackingButThreeCan) {
  // The non-obvious result the optimizer surfaces: with only TWO racks, a majority quorum
  // cannot survive the larger rack's loss no matter the split, so spreading merely adds
  // exposure to the second rack's events — packing everything into one rack is optimal.
  const std::vector<double> base(5, 0.002);
  const std::vector<double> two_racks = {0.01, 0.01};
  const auto best_two = OptimizeRackPlacement(base, two_racks);
  const int rack0 = static_cast<int>(
      std::count(best_two.rack_of.begin(), best_two.rack_of.end(), 0));
  EXPECT_TRUE(rack0 == 0 || rack0 == 5) << rack0;
  const auto split = EvaluateRackPlacement(base, two_racks, {0, 0, 0, 1, 1});
  EXPECT_GT(best_two.safe_and_live.value(), split.value());

  // With THREE racks a 2-2-1 split survives any single rack event, and the optimizer finds
  // it — roughly two orders of magnitude better than packing.
  const std::vector<double> three_racks = {0.01, 0.01, 0.01};
  const auto best_three = OptimizeRackPlacement(base, three_racks);
  std::vector<int> counts(3, 0);
  for (const int rack : best_three.rack_of) {
    ++counts[rack];
  }
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<int>{1, 2, 2}));
  EXPECT_LT(best_three.safe_and_live.complement(),
            best_two.safe_and_live.complement() / 20.0);
}

TEST(PlacementTest, ValidateAcceptsTheLimitsAndRejectsOnePast) {
  const std::vector<double> nodes(kMaxPlacementNodes, 0.01);
  const std::vector<double> racks(kMaxPlacementRacks, 0.001);
  EXPECT_TRUE(ValidateRackPlacement(nodes, racks).ok());
  EXPECT_TRUE(ValidateRackPlacement({0.01}, {0.001}).ok());
  EXPECT_EQ(ValidateRackPlacement(std::vector<double>(kMaxPlacementNodes + 1, 0.01), racks)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateRackPlacement(nodes, std::vector<double>(kMaxPlacementRacks + 1, 0.001))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ValidateRackPlacement({}, racks).ok());
  EXPECT_FALSE(ValidateRackPlacement(nodes, {}).ok());

  // Probabilities: 0 and 1 are in range, the neighbouring doubles outside it are not.
  EXPECT_TRUE(ValidateRackPlacement({0.0, 1.0}, {0.0, 1.0}).ok());
  const double above_one = std::nextafter(1.0, 2.0);
  const double below_zero = std::nextafter(0.0, -1.0);
  EXPECT_FALSE(ValidateRackPlacement({0.01, above_one}, racks).ok());
  EXPECT_FALSE(ValidateRackPlacement({0.01, below_zero}, racks).ok());
  EXPECT_FALSE(ValidateRackPlacement(nodes, {0.001, above_one}).ok());
  EXPECT_FALSE(ValidateRackPlacement(nodes, {0.001, below_zero}).ok());
  EXPECT_FALSE(
      ValidateRackPlacement(nodes, {std::numeric_limits<double>::quiet_NaN()}).ok());
}

}  // namespace
}  // namespace probcon
