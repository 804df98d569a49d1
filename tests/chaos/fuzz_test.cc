// End-to-end fuzz harness coverage. Two halves:
//  - Positive: honest configurations survive generated chaos (crash + partition + gray +
//    duplication regimes) with zero safety violations.
//  - Negative control: a deliberately mis-quorumed Raft (2-of-5 for both log replication and
//    leader election) MUST violate under a split-brain partition, the shrinker must emit a
//    minimal plan that still fails, and the repro JSON must replay the violation bit-for-bit.
// The negative control is what proves the oracle has teeth: a fuzzer that can't catch a
// known-broken quorum rule says nothing when it passes an honest one.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/chaos/fuzz.h"

namespace probcon {
namespace {

// A split-brain schedule for 5 nodes: {0,1} | {2,3,4} long enough for both sides to elect
// under a 2-vote quorum and commit divergent entries at the same slots.
ChaosPlan SplitBrainPlan() {
  ChaosPlan plan;
  plan.seed = 7001;
  plan.horizon = 9'000.0;
  ChaosRegime partition;
  partition.kind = RegimeKind::kPartition;
  partition.start = 1'000.0;
  partition.end = 8'000.0;
  partition.groups = {0, 0, 1, 1, 1};
  plan.regimes.push_back(partition);
  return plan;
}

ChaosRunOptions MisQuorumedRaft() {
  ChaosRunOptions options;
  options.protocol = FuzzProtocol::kRaft;
  options.node_count = 5;
  options.settle_time = 4'000.0;
  options.raft_q_per = 2;  // 2-of-5: two disjoint "quorums" can coexist.
  options.raft_q_vc = 2;
  return options;
}

TEST(ChaosFuzzTest, HonestRaftSurvivesGeneratedChaos) {
  FuzzCampaignOptions options;
  options.generator.node_count = 5;
  options.generator.horizon = 8'000.0;
  options.run.protocol = FuzzProtocol::kRaft;
  options.run.node_count = 5;
  options.run.settle_time = 5'000.0;
  options.seed = 20250;
  options.plan_count = 12;

  const Result<FuzzReport> report = RunFuzzCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->plans_run, 12);
  EXPECT_EQ(report->safety_violations, 0) << report->Describe();
}

TEST(ChaosFuzzTest, HonestPaxosSurvivesGeneratedChaos) {
  FuzzCampaignOptions options;
  options.generator.node_count = 5;
  options.generator.horizon = 8'000.0;
  options.run.protocol = FuzzProtocol::kPaxos;
  options.run.node_count = 5;
  options.run.settle_time = 5'000.0;
  options.seed = 31337;
  options.plan_count = 8;

  const Result<FuzzReport> report = RunFuzzCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->safety_violations, 0) << report->Describe();
}

TEST(ChaosFuzzTest, PbftWithinTheByzantineThresholdSurvivesGeneratedChaos) {
  FuzzCampaignOptions options;
  options.generator.node_count = 4;
  options.generator.horizon = 8'000.0;
  // Keep crashes off: a crashed replica plus a Byzantine one exceeds f = 1 at n = 4, which
  // is outside PBFT's guarantee envelope (and a finding the honest campaign above owns).
  options.generator.allow_crash_restart = false;
  options.run.protocol = FuzzProtocol::kPbft;
  options.run.node_count = 4;
  options.run.settle_time = 5'000.0;
  options.run.pbft_behaviors = {ByzantineBehavior::kEquivocate, ByzantineBehavior::kHonest,
                                ByzantineBehavior::kHonest, ByzantineBehavior::kHonest};
  options.seed = 808;
  options.plan_count = 8;

  const Result<FuzzReport> report = RunFuzzCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->safety_violations, 0) << report->Describe();
}

TEST(ChaosFuzzTest, MisQuorumedRaftViolatesUnderSplitBrain) {
  const Result<ChaosRunResult> result = ExecuteChaosPlan(SplitBrainPlan(), MisQuorumedRaft());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->safety_ok);
  EXPECT_FALSE(result->violation.empty());
}

TEST(ChaosFuzzTest, ShrinkerDropsPaddingAndStaysFailing) {
  // Pad the split-brain schedule with regimes that are irrelevant to the violation; the
  // shrinker must strip them and may also tighten the partition window itself.
  ChaosPlan padded = SplitBrainPlan();
  {
    ChaosRegime gray;
    gray.kind = RegimeKind::kGraySlow;
    gray.start = 200.0;
    gray.end = 600.0;
    gray.nodes = {4};
    gray.handler_delay = 25.0;
    padded.regimes.push_back(gray);
  }
  {
    ChaosRegime duplicate;
    duplicate.kind = RegimeKind::kDuplicate;
    duplicate.start = 100.0;
    duplicate.end = 400.0;
    duplicate.probability = 0.1;
    padded.regimes.push_back(duplicate);
  }

  const ChaosRunOptions options = MisQuorumedRaft();
  const Result<ShrinkOutcome> shrunk = ShrinkChaosPlan(padded, options);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_GT(shrunk->evaluations, 1);
  EXPECT_LT(shrunk->plan.regimes.size(), padded.regimes.size());
  ASSERT_GE(shrunk->plan.regimes.size(), 1u);
  EXPECT_EQ(shrunk->plan.regimes[0].kind, RegimeKind::kPartition);

  // The shrunk plan is replayable: a JSON round trip still reproduces the violation.
  const Result<ChaosPlan> reloaded = ChaosPlan::FromJson(shrunk->plan.ToJson());
  ASSERT_TRUE(reloaded.ok());
  const Result<ChaosRunResult> replay = ExecuteChaosPlan(*reloaded, options);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->safety_ok);
}

TEST(ChaosFuzzTest, ShrinkRefusesAPassingPlan) {
  ChaosRunOptions options;
  options.protocol = FuzzProtocol::kRaft;
  options.node_count = 5;
  options.settle_time = 2'000.0;
  ChaosPlan benign;
  benign.seed = 3;
  benign.horizon = 3'000.0;  // No regimes at all: nothing to reproduce.
  EXPECT_FALSE(ShrinkChaosPlan(benign, options).ok());
}

TEST(ChaosFuzzTest, CampaignDumpsReplayableReprosForViolations) {
  // Partitions-only generated chaos against the mis-quorumed config: some generated split
  // must divide the cluster into two electable halves and trip the checker.
  FuzzCampaignOptions options;
  options.generator.node_count = 5;
  options.generator.horizon = 12'000.0;
  options.generator.allow_link_degrade = false;
  options.generator.allow_gray_slow = false;
  options.generator.allow_clock_skew = false;
  options.generator.allow_duplicate = false;
  options.generator.allow_reorder = false;
  options.generator.allow_crash_restart = false;
  options.run = MisQuorumedRaft();
  options.seed = 515;
  options.plan_count = 6;
  // A directory of its own, so concurrent runs of this test never share one.
  std::string repro_dir = std::string(::testing::TempDir()) + "/chaos_repro_XXXXXX";
  ASSERT_NE(mkdtemp(repro_dir.data()), nullptr) << repro_dir;
  options.repro_dir = repro_dir;

  const Result<FuzzReport> report = RunFuzzCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->safety_violations, 0) << report->Describe();

  const FuzzViolation& violation = report->violations.front();
  ASSERT_TRUE(violation.shrunk.has_value());
  ASSERT_FALSE(violation.repro_path.empty());
  ASSERT_TRUE(std::filesystem::exists(violation.repro_path));

  // The dumped plan file replays to the same violation.
  std::ifstream in(violation.repro_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<ChaosPlan> reloaded = ChaosPlan::FromJson(buffer.str());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Result<ChaosRunResult> replay = ExecuteChaosPlan(*reloaded, options.run);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->safety_ok);

  // The minimal plan and the obs trace rode along in the bundle.
  const std::string stem = options.repro_dir + "/violation_" +
                           std::to_string(violation.plan_index);
  EXPECT_TRUE(std::filesystem::exists(stem + ".min.plan.json"));
  EXPECT_TRUE(std::filesystem::exists(stem + ".trace.json"));
  std::filesystem::remove_all(options.repro_dir);
}

}  // namespace
}  // namespace probcon
