#include "src/analysis/round_analysis.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/reliability.h"
#include "src/common/cancellation.h"
#include "src/faultmodel/fault_curve.h"
#include "src/faultmodel/round_schedule.h"
#include "src/sim/failure_injector.h"
#include "src/sim/network.h"
#include "src/sim/process.h"
#include "src/sim/simulator.h"

namespace probcon {
namespace {

RoundSchedule FlatSchedule(int n, double p, int rounds) {
  return RoundSchedule(24.0, std::vector<std::vector<double>>(
                                 rounds, std::vector<double>(n, p)));
}

TEST(RoundAnalysisTest, PerRoundMatchesOneShotAnalysis) {
  // A flat schedule must reproduce the one-shot Theorem 3.2 numbers in every round.
  const RaftConfig config = RaftConfig::Standard(5);
  const RoundSchedule schedule = FlatSchedule(5, 0.03, 4);
  const RoundAnalysis result = AnalyzeRaftRounds(config, schedule);
  ASSERT_EQ(result.per_round.size(), 4u);
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(5, 0.03);
  const ReliabilityReport one_shot = AnalyzeRaft(config, analyzer);
  for (const ReliabilityReport& report : result.per_round) {
    EXPECT_DOUBLE_EQ(report.live.value(), one_shot.live.value());
    EXPECT_DOUBLE_EQ(report.safe.value(), one_shot.safe.value());
  }
}

TEST(RoundAnalysisTest, MissionAggregatesMultiplyPerRoundProbabilities) {
  const RaftConfig config = RaftConfig::Standard(3);
  const RoundSchedule schedule = FlatSchedule(3, 0.05, 6);
  const RoundAnalysis result = AnalyzeRaftRounds(config, schedule);
  double product = 1.0;
  for (const ReliabilityReport& report : result.per_round) {
    product *= report.live.value();
  }
  EXPECT_NEAR(result.mission_live.value(), product, 1e-12);
  EXPECT_DOUBLE_EQ(result.mission_safe.value(), 1.0);  // Raft safety is structural.
}

TEST(RoundAnalysisTest, CumulativeUsesAccumulatedFailureProbabilities) {
  // Fail-stop: round r is analyzed with q^(r) = 1 - prod(1 - p^(s)), s <= r.
  const RaftConfig config = RaftConfig::Standard(3);
  const RoundSchedule schedule = FlatSchedule(3, 0.1, 3);
  const RoundAnalysis result = AnalyzeRaftRounds(config, schedule);
  ASSERT_EQ(result.cumulative.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const double q = 1.0 - std::pow(0.9, r + 1);
    const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(3, q);
    const ReliabilityReport expected = AnalyzeRaft(config, analyzer);
    EXPECT_NEAR(result.cumulative[r].live.value(), expected.live.value(), 1e-12) << r;
  }
  // The failed set only grows, so cumulative liveness is monotone non-increasing.
  EXPECT_GE(result.cumulative[0].live.value(), result.cumulative[1].live.value());
  EXPECT_GE(result.cumulative[1].live.value(), result.cumulative[2].live.value());
}

TEST(RoundAnalysisTest, AgingCurveDegradesLiveness) {
  // Under wear-out, later rounds must be strictly less live than earlier ones.
  const WeibullFaultCurve curve(3.0, 2000.0);
  const RoundSchedule schedule = RoundSchedule::FromCurve(curve, 5, 1000.0, 24.0, 10);
  const RoundAnalysis result = AnalyzeRaftRounds(RaftConfig::Standard(5), schedule);
  EXPECT_GT(result.per_round.front().live.value(), result.per_round.back().live.value());
}

TEST(RoundAnalysisTest, PbftRoundsReportSafety) {
  const PbftConfig config = PbftConfig::Standard(4);
  const RoundSchedule schedule = FlatSchedule(4, 0.02, 3);
  const RoundAnalysis result = AnalyzePbftRounds(config, schedule);
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(4, 0.02);
  const ReliabilityReport one_shot = AnalyzePbft(config, analyzer);
  ASSERT_EQ(result.per_round.size(), 3u);
  EXPECT_DOUBLE_EQ(result.per_round[0].safe.value(), one_shot.safe.value());
  EXPECT_DOUBLE_EQ(result.per_round[0].live.value(), one_shot.live.value());
  EXPECT_DOUBLE_EQ(result.per_round[0].safe_and_live.value(),
                   one_shot.safe_and_live.value());
  EXPECT_NEAR(result.mission_safe.value(), std::pow(one_shot.safe.value(), 3), 1e-12);
}

TEST(RoundAnalysisTest, ConfigSizeMustMatchScheduleWidth) {
  const RoundSchedule schedule = FlatSchedule(4, 0.02, 2);
  EXPECT_DEATH(AnalyzeRaftRounds(RaftConfig::Standard(5), schedule), "");
}

TEST(RoundAnalysisTest, CancellationUnwinds) {
  CancelToken token;
  token.Cancel();
  const auto result = TryAnalyzeRaftRounds(RaftConfig::Standard(3), FlatSchedule(3, 0.01, 5),
                                           AnalysisMethod::kAuto, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(RoundAnalysisTest, ProgressCountsEnumeratedConfigurations) {
  // Progress means what it means in TryEventProbability: the count DP enumerates nothing,
  // and kExact enumerates 2^3 configurations per regime, two regimes per round.
  std::atomic<uint64_t> progress{0};
  const auto count_dp = TryAnalyzeRaftRounds(RaftConfig::Standard(3), FlatSchedule(3, 0.01, 7),
                                             AnalysisMethod::kAuto, nullptr, &progress);
  ASSERT_TRUE(count_dp.ok());
  EXPECT_EQ(progress.load(), 0u);
  const auto exact = TryAnalyzeRaftRounds(RaftConfig::Standard(3), FlatSchedule(3, 0.01, 7),
                                          AnalysisMethod::kExact, nullptr, &progress);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(progress.load(), 7u * 2u * 8u);
}

// ---------------------------------------------------------------------------------------
// Cross-validation against the discrete-event simulator: the same schedule drives
// sim::FailureInjector through RoundSchedule::NodeCurve, and the empirical quorum-loss
// fraction over seeded fail-stop campaigns must match the analysis' cumulative regime.

class InertProcess final : public Process {
 public:
  using Process::Process;

 protected:
  void OnStart() override {}
  void OnMessage(int, const std::shared_ptr<const SimMessage>&) override {}
};

// Runs one fail-stop campaign over the schedule's mission and reports per-node crash flags.
std::vector<bool> RunCampaign(const RoundSchedule& schedule, uint64_t seed) {
  const int n = schedule.n();
  Simulator sim(seed);
  Network network(&sim, n, std::make_unique<UniformLatencyModel>(1.0, 1.0));
  std::vector<std::unique_ptr<InertProcess>> processes;
  std::vector<Process*> borrowed;
  std::vector<std::unique_ptr<FaultCurve>> curves;
  for (int i = 0; i < n; ++i) {
    processes.push_back(std::make_unique<InertProcess>(&sim, &network, i));
    processes.back()->Start();
    borrowed.push_back(processes.back().get());
    curves.push_back(schedule.NodeCurve(i));
  }
  FailureInjector injector(&sim, borrowed, std::move(curves));
  injector.Arm();
  sim.Run(schedule.mission_hours());
  std::vector<bool> crashed;
  for (const auto& p : processes) {
    crashed.push_back(p->crashed());
  }
  return crashed;
}

TEST(RoundAnalysisSimCrossValidationTest, CumulativeLivenessMatchesInjectorCampaigns) {
  // Aging fleet, no repair: analysis says P(quorum alive at mission end); the simulator
  // votes with 2000 seeded campaigns. Wilson-style slack: sigma ~ sqrt(p(1-p)/2000) ~ 0.009
  // at the probabilities below, so 0.035 is ~4 sigma.
  constexpr int kNodes = 5;
  constexpr int kTrials = 2000;
  const WeibullFaultCurve curve(2.0, 800.0);
  const RoundSchedule schedule = RoundSchedule::FromCurve(curve, kNodes, 200.0, 24.0, 12);
  const RoundAnalysis analysis =
      AnalyzeRaftRounds(RaftConfig::Standard(kNodes), schedule);

  int quorum_alive = 0;
  int node0_crashed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<bool> crashed = RunCampaign(schedule, 1000 + trial);
    int up = 0;
    for (const bool c : crashed) {
      up += c ? 0 : 1;
    }
    quorum_alive += up >= 3 ? 1 : 0;
    node0_crashed += crashed[0] ? 1 : 0;
  }

  const double expected_live = analysis.cumulative.back().live.value();
  EXPECT_NEAR(static_cast<double>(quorum_alive) / kTrials, expected_live, 0.035);

  const double expected_node_failure = schedule.CumulativeFailureProbabilities()[0];
  EXPECT_NEAR(static_cast<double>(node0_crashed) / kTrials, expected_node_failure, 0.035);
}

}  // namespace
}  // namespace probcon
