#include "src/analysis/protocol_spec.h"

#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/reliability.h"

namespace probcon {
namespace {

TEST(RaftConfigTest, StandardUsesMajorities) {
  for (const int n : {1, 3, 5, 7, 9, 4, 8}) {
    const auto config = RaftConfig::Standard(n);
    EXPECT_EQ(config.q_per, n / 2 + 1) << n;
    EXPECT_EQ(config.q_vc, n / 2 + 1) << n;
    EXPECT_TRUE(RaftIsSafeStructurally(config)) << n;
  }
}

TEST(PbftConfigTest, StandardQuorumSizesMatchPaperTable1) {
  // The paper's Table 1 header row: (N, Qeq, Qper, Qvc, Qvc_t).
  const struct {
    int n, q, q_vc_t;
  } expected[] = {{4, 3, 2}, {5, 4, 2}, {7, 5, 3}, {8, 6, 3}};
  for (const auto& row : expected) {
    const auto config = PbftConfig::Standard(row.n);
    EXPECT_EQ(config.q_eq, row.q) << row.n;
    EXPECT_EQ(config.q_per, row.q) << row.n;
    EXPECT_EQ(config.q_vc, row.q) << row.n;
    EXPECT_EQ(config.q_vc_t, row.q_vc_t) << row.n;
  }
}

TEST(RaftTheoremTest, StructuralSafetyConditions) {
  // n < q_per + q_vc AND n < 2*q_vc.
  EXPECT_TRUE(RaftIsSafeStructurally({5, 3, 3}));
  EXPECT_FALSE(RaftIsSafeStructurally({5, 2, 3}));   // Quorums may miss each other.
  EXPECT_FALSE(RaftIsSafeStructurally({5, 5, 2}));   // Two leaders possible.
  EXPECT_TRUE(RaftIsSafeStructurally({5, 2, 4}));    // Flexible-Paxos style is fine.
  EXPECT_TRUE(RaftIsSafeStructurally({4, 2, 3}));
}

TEST(RaftTheoremTest, LivenessNeedsBothQuorums) {
  const RaftConfig config{5, 2, 4};
  EXPECT_TRUE(RaftIsLive(config, 5));
  EXPECT_TRUE(RaftIsLive(config, 4));
  EXPECT_FALSE(RaftIsLive(config, 3));  // Election quorum of 4 unreachable.
}

TEST(PbftTheoremTest, SafetyThresholds) {
  const auto config = PbftConfig::Standard(4);  // q=3: Byz < min(2*3-4, 3+3-4) = 2.
  EXPECT_TRUE(PbftIsSafe(config, 0));
  EXPECT_TRUE(PbftIsSafe(config, 1));
  EXPECT_FALSE(PbftIsSafe(config, 2));
}

TEST(PbftTheoremTest, LivenessThresholds) {
  const auto config = PbftConfig::Standard(4);  // Live iff Byz <= min(3-2, 4-3, 2-1) = 1.
  EXPECT_TRUE(PbftIsLive(config, 0));
  EXPECT_TRUE(PbftIsLive(config, 1));
  EXPECT_FALSE(PbftIsLive(config, 2));
}

TEST(PbftTheoremTest, TriggerQuorumCanBottleneckLiveness) {
  // Huge trigger quorum: correct nodes can't outvote Byzantine silence.
  const PbftConfig config{7, 5, 5, 5, 5};  // q_vc - q_vc_t = 0 -> any Byz kills liveness.
  EXPECT_TRUE(PbftIsLive(config, 0));
  EXPECT_FALSE(PbftIsLive(config, 1));
}

// --- Table 1: every cell ------------------------------------------------------

struct Table1Row {
  int n;
  double safe_complement;
  double live_complement;
};

// Names each case by its contents; without this the generated test name is a byte dump
// that includes padding, so it changes whenever the binary does.
void PrintTo(const Table1Row& row, std::ostream* os) {
  *os << "N=" << row.n << " safe_complement=" << row.safe_complement
      << " live_complement=" << row.live_complement;
}

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, CellReproduces) {
  const auto& row = GetParam();
  const auto config = PbftConfig::Standard(row.n);
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(row.n, 0.01);
  const auto report = AnalyzePbft(config, analyzer);
  EXPECT_NEAR(report.safe.complement(), row.safe_complement, row.safe_complement * 0.02);
  EXPECT_NEAR(report.live.complement(), row.live_complement, row.live_complement * 0.02);
  // In Table 1, S&L always equals min(safe, live) because the unsafe set nests inside the
  // unlive set or vice versa.
  const double expected_sl = std::max(row.safe_complement, row.live_complement);
  EXPECT_NEAR(report.safe_and_live.complement(), expected_sl, expected_sl * 0.02);
}

// Complements computed independently (binomial tails at p=0.01):
//   N=4: P(Byz>=2)=5.92e-4 (safe & live identical thresholds)
//   N=5: safe P(Byz>=3)=9.85e-6, live P(Byz>=2)=9.80e-4
//   N=7: safe=live P(Byz>=3)=3.40e-5
//   N=8: safe P(Byz>=4)=6.78e-7, live P(Byz>=3)=5.39e-5
INSTANTIATE_TEST_SUITE_P(AllCells, Table1Test,
                         ::testing::Values(Table1Row{4, 5.92e-4, 5.92e-4},
                                           Table1Row{5, 9.85e-6, 9.83e-4},
                                           Table1Row{7, 3.40e-5, 3.40e-5},
                                           Table1Row{8, 6.78e-7, 5.39e-5}));

// --- Table 2: every cell ------------------------------------------------------

struct Table2Cell {
  int n;
  double p;
  const char* expected;  // The paper's printed cell.
};

// As for Table1Row; here the byte dump also holds the string's address, which changes
// from run to run.
void PrintTo(const Table2Cell& cell, std::ostream* os) {
  *os << "N=" << cell.n << " p=" << cell.p << " paper=" << cell.expected << "%";
}

class Table2Test : public ::testing::TestWithParam<Table2Cell> {};

TEST_P(Table2Test, CellReproduces) {
  const auto& cell = GetParam();
  const auto config = RaftConfig::Standard(cell.n);
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(cell.n, cell.p);
  const auto report = AnalyzeRaft(config, analyzer);
  // Parse the paper's percentage and compare its complement within print precision.
  const double paper_percent = std::stod(std::string(cell.expected));
  const double paper_complement = 1.0 - paper_percent / 100.0;
  // The paper prints very few digits, so the implied complement can be off by tens of
  // percent relative (e.g. "99.999998%" implies 2e-8 where the exact value is 1.22e-8).
  EXPECT_NEAR(report.safe_and_live.complement(), paper_complement,
              std::max(paper_complement * 0.45, 1e-9))
      << cell.n << " @ " << cell.p;
  EXPECT_DOUBLE_EQ(report.safe.value(), 1.0);  // Structural.
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, Table2Test,
    ::testing::Values(
        Table2Cell{3, 0.01, "99.97"}, Table2Cell{3, 0.02, "99.88"},
        Table2Cell{3, 0.04, "99.53"}, Table2Cell{3, 0.08, "98.18"},
        Table2Cell{5, 0.01, "99.9990"}, Table2Cell{5, 0.02, "99.992"},
        Table2Cell{5, 0.04, "99.94"}, Table2Cell{5, 0.08, "99.55"},
        Table2Cell{7, 0.01, "99.99997"}, Table2Cell{7, 0.02, "99.9995"},
        Table2Cell{7, 0.04, "99.992"}, Table2Cell{7, 0.08, "99.88"},
        Table2Cell{9, 0.01, "99.999998"}, Table2Cell{9, 0.02, "99.99996"},
        Table2Cell{9, 0.04, "99.9988"}, Table2Cell{9, 0.08, "99.97"}));

// --- Key in-text claims ---------------------------------------------------------

TEST(PaperClaimsTest, RaftThreeNodesIsThreeNinesAtOnePercent) {
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(3, 0.01);
  const auto report = AnalyzeRaft(RaftConfig::Standard(3), analyzer);
  EXPECT_NEAR(report.safe_and_live.nines(), 3.53, 0.02);
}

TEST(PaperClaimsTest, NineCheapNodesMatchThreeGoodNodes) {
  const auto three = AnalyzeRaft(RaftConfig::Standard(3),
                                 ReliabilityAnalyzer::ForUniformNodes(3, 0.01));
  const auto nine = AnalyzeRaft(RaftConfig::Standard(9),
                                ReliabilityAnalyzer::ForUniformNodes(9, 0.08));
  // Both ~99.97%.
  EXPECT_NEAR(three.safe_and_live.complement(), nine.safe_and_live.complement(), 8e-5);
}

TEST(PaperClaimsTest, FiveNodePbftSaferThanSevenNode) {
  const auto five = AnalyzePbft(PbftConfig::Standard(5),
                                ReliabilityAnalyzer::ForUniformNodes(5, 0.01));
  const auto seven = AnalyzePbft(PbftConfig::Standard(7),
                                 ReliabilityAnalyzer::ForUniformNodes(7, 0.01));
  EXPECT_LT(five.safe.complement(), seven.safe.complement());
}

TEST(PaperClaimsTest, SafetyLivenessTradeoffBetweenFourAndFiveNodes) {
  const auto four = AnalyzePbft(PbftConfig::Standard(4),
                                ReliabilityAnalyzer::ForUniformNodes(4, 0.01));
  const auto five = AnalyzePbft(PbftConfig::Standard(5),
                                ReliabilityAnalyzer::ForUniformNodes(5, 0.01));
  const double safety_gain = four.safe.complement() / five.safe.complement();
  const double liveness_loss = five.live.complement() / four.live.complement();
  EXPECT_NEAR(safety_gain, 60.0, 3.0);    // Paper: 42-60x.
  EXPECT_NEAR(liveness_loss, 1.66, 0.05); // Paper: 1.67x.
}

}  // namespace
}  // namespace probcon
