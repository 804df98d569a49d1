#include "src/prob/probability.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "src/prob/kahan.h"

namespace probcon {
namespace {

TEST(ProbabilityTest, ConstructionFromProbability) {
  const auto p = Probability::FromProbability(0.25);
  EXPECT_DOUBLE_EQ(p.value(), 0.25);
  EXPECT_DOUBLE_EQ(p.complement(), 0.75);
}

TEST(ProbabilityTest, ConstructionFromComplementPreservesSmallSide) {
  const double q = 3.37e-12;
  const auto p = Probability::FromComplement(q);
  EXPECT_DOUBLE_EQ(p.complement(), q);  // Exact — this is the whole point of the type.
  EXPECT_NEAR(p.nines(), -std::log10(q), 1e-9);
}

TEST(ProbabilityTest, ZeroAndOne) {
  EXPECT_DOUBLE_EQ(Probability::Zero().value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability::One().value(), 1.0);
  EXPECT_TRUE(std::isinf(Probability::One().nines()));
  EXPECT_TRUE(std::isinf(Probability::Zero().complement_nines()));
}

TEST(ProbabilityTest, NotSwapsSides) {
  const auto p = Probability::FromComplement(1e-9);
  const auto not_p = p.Not();
  EXPECT_DOUBLE_EQ(not_p.value(), 1e-9);
  EXPECT_DOUBLE_EQ(not_p.Not().complement(), 1e-9);
}

TEST(ProbabilityTest, AndOfNearCertainEventsKeepsPrecision) {
  // Two events each with q = 1e-10; naive double arithmetic on p = 1 - 1e-10 would round the
  // conjunction's complement to ~2e-10 with only a few digits; the complement formula keeps
  // full precision.
  const auto a = Probability::FromComplement(1e-10);
  const auto b = Probability::FromComplement(1e-10);
  const auto both = a.And(b);
  EXPECT_NEAR(both.complement(), 2e-10 - 1e-20, 1e-24);
}

TEST(ProbabilityTest, AndMatchesNaiveInMidRange) {
  const auto a = Probability::FromProbability(0.3);
  const auto b = Probability::FromProbability(0.4);
  EXPECT_NEAR(a.And(b).value(), 0.12, 1e-15);
  EXPECT_NEAR(a.Or(b).value(), 0.3 + 0.4 - 0.12, 1e-15);
}

TEST(ProbabilityTest, OrOfRareEventsKeepsPrecision) {
  const auto a = Probability::FromProbability(1e-12);
  const auto b = Probability::FromProbability(3e-12);
  // Exact union: pa + pb - pa*pb.
  EXPECT_NEAR(a.Or(b).value(), 4e-12 - 3e-24, 1e-26);
}

TEST(ProbabilityTest, AndIsCommutative) {
  const auto a = Probability::FromProbability(0.123);
  const auto b = Probability::FromComplement(0.002);
  EXPECT_DOUBLE_EQ(a.And(b).value(), b.And(a).value());
  EXPECT_DOUBLE_EQ(a.And(b).complement(), b.And(a).complement());
}

TEST(ProbabilityTest, AndWithOneIsIdentity) {
  const auto a = Probability::FromComplement(4.2e-8);
  const auto result = a.And(Probability::One());
  EXPECT_DOUBLE_EQ(result.complement(), 4.2e-8);
}

TEST(ProbabilityTest, OrWithZeroIsIdentity) {
  const auto a = Probability::FromProbability(4.2e-8);
  EXPECT_DOUBLE_EQ(a.Or(Probability::Zero()).value(), 4.2e-8);
}

TEST(ProbabilityTest, SumDisjoint) {
  const auto a = Probability::FromProbability(0.2);
  const auto b = Probability::FromProbability(0.35);
  const auto sum = a.SumDisjoint(b);
  EXPECT_NEAR(sum.value(), 0.55, 1e-15);
  EXPECT_NEAR(sum.complement(), 0.45, 1e-15);
}

TEST(ProbabilityTest, MixInterpolates) {
  const auto a = Probability::FromProbability(0.9);
  const auto b = Probability::FromProbability(0.1);
  const auto mixed = a.Mix(0.5, b);
  EXPECT_NEAR(mixed.value(), 0.5, 1e-15);
}

TEST(ProbabilityTest, ComparisonUsesSmallSide) {
  const auto a = Probability::FromComplement(1e-10);
  const auto b = Probability::FromComplement(2e-10);
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(a > b);
  EXPECT_FALSE(a < b);
}

TEST(ProbabilityTest, NinesValues) {
  EXPECT_NEAR(Probability::FromComplement(1e-3).nines(), 3.0, 1e-12);
  EXPECT_NEAR(Probability::FromComplement(1e-7).nines(), 7.0, 1e-12);
  EXPECT_NEAR(Probability::FromProbability(0.999).nines(), 3.0, 1e-9);
}

// --- Formatting: the paper's table cells -------------------------------------

struct FormatCase {
  double complement;
  const char* expected;
};

// Names each case by its contents; without this the generated test name is a byte dump
// that includes the string's address, so it changes from run to run.
void PrintTo(const FormatCase& param, std::ostream* os) {
  *os << "complement=" << param.complement << " paper=" << param.expected;
}

class FormatPercentTest : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatPercentTest, MatchesPaperStyle) {
  const auto& param = GetParam();
  EXPECT_EQ(FormatPercent(Probability::FromComplement(param.complement)), param.expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, FormatPercentTest,
    ::testing::Values(
        // Raft Table 2 (N=3 row) complements.
        FormatCase{2.9800e-4, "99.97%"}, FormatCase{1.1840e-3, "99.88%"},
        FormatCase{4.7000e-3, "99.53%"}, FormatCase{1.8176e-2, "98.18%"},
        // PBFT Table 1 cells.
        FormatCase{5.920e-4, "99.94%"}, FormatCase{9.85e-6, "99.9990%"},
        FormatCase{9.80e-4, "99.90%"}, FormatCase{3.3963e-5, "99.997%"},
        FormatCase{6.6e-7, "99.99993%"}, FormatCase{5.03e-5, "99.995%"},
        // Boundaries.
        FormatCase{0.5, "50.00%"}, FormatCase{1.0, "0.00%"}));

TEST(ProbabilityTest, FormatPercentExactlyOne) {
  EXPECT_EQ(FormatPercent(Probability::One()), "100%");
}

TEST(ProbabilityTest, FormatNines) {
  EXPECT_EQ(FormatNines(Probability::FromComplement(1e-4)), "4.00 nines");
  EXPECT_EQ(FormatNines(Probability::One()), "inf nines");
}

// --- Ablation: complement tracking vs naive doubles --------------------------

TEST(ProbabilityAblationTest, NaiveDoubleLosesNinesComplementTrackingDoesNot) {
  // AND of 10 events with q = 1e-12 each: true complement ~1e-11.
  const double q = 1e-12;
  double naive = 1.0 - q;
  auto tracked = Probability::FromComplement(q);
  for (int i = 1; i < 10; ++i) {
    naive *= (1.0 - q);
    tracked = tracked.And(Probability::FromComplement(q));
  }
  // High-precision truth from the binomial series: 1 - (1-q)^10 = 10q - 45q^2 + O(q^3).
  const double true_complement = 10.0 * q - 45.0 * q * q;
  // The tracked complement is accurate to ~1e-26 absolute...
  const double tracked_error = std::fabs(tracked.complement() - true_complement);
  EXPECT_LE(tracked_error, 1e-25);
  // ...while recovering the complement from the naive double product is limited by ulp(1.0)
  // ~ 2e-16 absolute, i.e. a 1e-5 RELATIVE error on a 1e-11 complement. Five orders of
  // magnitude between the two approaches.
  const double naive_error = std::fabs((1.0 - naive) - true_complement);
  EXPECT_LE(tracked_error, naive_error * 1e-3);
}

TEST(KahanTest, CompensatedSummationBeatsNaive) {
  // Sum 1.0 with 1e8 copies of 1e-16: naive accumulation loses them all.
  KahanSum kahan(1.0);
  double naive = 1.0;
  constexpr int kCount = 100000000;
  for (int i = 0; i < kCount; ++i) {
    kahan.Add(1e-16);
    naive += 1e-16;
  }
  EXPECT_DOUBLE_EQ(naive, 1.0);  // All mass lost.
  EXPECT_NEAR(kahan.Total(), 1.0 + 1e-8, 1e-15);
}

TEST(KahanTest, ResetClears) {
  KahanSum sum;
  sum.Add(5.0);
  sum.Reset();
  EXPECT_DOUBLE_EQ(sum.Total(), 0.0);
}

}  // namespace
}  // namespace probcon
