#include "src/lifecycle/fleet_model.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/protocol_spec.h"
#include "src/common/cancellation.h"
#include "src/faultmodel/afr.h"
#include "src/faultmodel/fault_curve.h"
#include "src/markov/repair_model.h"

namespace probcon {
namespace {

FleetParams Homogeneous(int n, double lambda, double mu, int servers) {
  FleetParams params;
  params.classes = {{.count = n, .failure_rate = lambda}};
  params.repair_rate = mu;
  params.repair_servers = servers;
  return params;
}

TEST(FleetModelTest, ValidateRejectsStructuralErrors) {
  constexpr FleetProtocol kRaft = FleetProtocol::kRaft;
  constexpr FleetProtocol kPbft = FleetProtocol::kPbft;
  EXPECT_FALSE(FleetModel::Validate({}, kRaft).ok());  // No classes.
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(0, 1e-3, 0.1, 1), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 0.0, 0.1, 1), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, -1.0, 0.1, 1), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 1e-3, -0.1, 1), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 1e-3, 0.1, 0), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(9999, 1e-3, 0.1, 1), kRaft).ok());  // Cap.
  FleetParams no_old = Homogeneous(3, 1e-3, 0.1, 1);
  no_old.classes[0].in_old = false;
  EXPECT_FALSE(FleetModel::Validate(no_old, kRaft).ok());  // Empty current membership.
  EXPECT_TRUE(FleetModel::Validate(Homogeneous(5, 1e-3, 0.1, 2), kRaft).ok());

  // PBFT needs kPbftMinNodes in the current membership and in a non-empty new one.
  EXPECT_TRUE(FleetModel::Validate(Homogeneous(3, 1e-3, 0.1, 1), kRaft).ok());
  EXPECT_FALSE(FleetModel::Validate(Homogeneous(3, 1e-3, 0.1, 1), kPbft).ok());
  EXPECT_TRUE(FleetModel::Validate(Homogeneous(kPbftMinNodes, 1e-3, 0.1, 1), kPbft).ok());
  FleetParams shrinking = Homogeneous(3, 1e-3, 0.1, 1);
  shrinking.classes.push_back({.count = 2, .failure_rate = 1e-3, .in_new = false});
  EXPECT_FALSE(FleetModel::Validate(shrinking, kPbft).ok());
  FleetParams retiring = Homogeneous(4, 1e-3, 0.1, 1);
  retiring.classes[0].in_new = false;
  EXPECT_TRUE(FleetModel::Validate(retiring, kPbft).ok());
}

TEST(FleetModelTest, StateSpaceIsPerClassProduct) {
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 1e-3},
                    {.count = 2, .failure_rate = 2e-3}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  EXPECT_EQ(model.state_count(), 4 * 3);
  EXPECT_EQ(model.total_nodes(), 5);
}

TEST(FleetModelTest, RaftLivenessIsMajorityOfCurrentMembership) {
  FleetParams params = Homogeneous(5, 1e-3, 0.1, 1);
  const FleetModel model(params, FleetProtocol::kRaft);
  EXPECT_TRUE(model.IsLive({0}));
  EXPECT_TRUE(model.IsLive({2}));
  EXPECT_FALSE(model.IsLive({3}));
}

TEST(FleetModelTest, PbftLivenessCountsCrashesAsByzantine) {
  // n = 4 tolerates f = 1: live with one failure, not with two.
  const FleetModel model(Homogeneous(4, 1e-3, 0.1, 1), FleetProtocol::kPbft);
  EXPECT_TRUE(model.IsLive({1}));
  EXPECT_FALSE(model.IsLive({2}));
}

TEST(FleetModelTest, ReconfigurationNeedsQuorumsInBothMemberships) {
  // Old membership = {A:3}, new membership = {B:3}; A is being replaced by B.
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 1e-3, .in_old = true, .in_new = false},
                    {.count = 3, .failure_rate = 1e-3, .in_old = false, .in_new = true}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  // Steady operation only consults the old membership.
  EXPECT_TRUE(model.IsLive({1, 3}));
  // The joint window additionally needs a majority of the new one.
  EXPECT_FALSE(model.IsLiveDuringReconfiguration({1, 3}));
  EXPECT_TRUE(model.IsLiveDuringReconfiguration({1, 1}));
  EXPECT_FALSE(model.IsLiveDuringReconfiguration({2, 0}));
}

// -----------------------------------------------------------------------------------------
// Golden cross-checks against the homogeneous birth-death model (ConsensusRepairModel) and
// its closed forms: the lumped one-class chain must agree exactly.

TEST(FleetModelTest, HomogeneousAvailabilityMatchesConsensusRepairModel) {
  const int n = 5;
  const double lambda = 2e-3;
  const double mu = 0.25;
  for (const int servers : {1, 2, n}) {
    const FleetModel fleet(Homogeneous(n, lambda, mu, servers), FleetProtocol::kRaft);
    const ConsensusRepairModel reference({n, lambda, mu, servers});
    const auto fleet_avail = fleet.TrySteadyStateAvailability(false, {});
    const auto reference_avail = reference.SteadyStateAvailability(3);
    ASSERT_TRUE(fleet_avail.ok());
    ASSERT_TRUE(reference_avail.ok());
    EXPECT_NEAR(fleet_avail->value(), reference_avail->value(), 1e-12) << servers;
  }
}

TEST(FleetModelTest, HomogeneousMttuMatchesConsensusRepairModel) {
  const int n = 4;
  const double lambda = 1e-3;
  const double mu = 0.5;
  const FleetModel fleet(Homogeneous(n, lambda, mu, 2), FleetProtocol::kPbft);
  const ConsensusRepairModel reference({n, lambda, mu, 2});
  const auto fleet_mttu = fleet.TryMeanTimeToUnavailability(false, {});
  // PBFT n=4 loses liveness at the second failure, i.e. below 3 alive.
  const auto reference_mttu = reference.MeanTimeToUnavailability(3);
  ASSERT_TRUE(fleet_mttu.ok());
  ASSERT_TRUE(reference_mttu.ok());
  EXPECT_NEAR(*fleet_mttu / *reference_mttu, 1.0, 1e-10);
}

TEST(FleetModelTest, HomogeneousMttqlMatchesConsensusRepairModel) {
  const int n = 5;
  const FleetModel fleet(Homogeneous(n, 5e-3, 0.1, 1), FleetProtocol::kRaft);
  const ConsensusRepairModel reference({n, 5e-3, 0.1, 1});
  const auto fleet_mttql = fleet.TryMeanTimeToQuorumLoss(4, {});
  const auto reference_mttql = reference.MeanTimeToQuorumLoss(4);
  ASSERT_TRUE(fleet_mttql.ok());
  ASSERT_TRUE(reference_mttql.ok());
  EXPECT_NEAR(*fleet_mttql / *reference_mttql, 1.0, 1e-10);
}

TEST(FleetModelTest, HomogeneousMissionReliabilityMatchesUnavailabilityWithin) {
  const int n = 3;
  const double lambda = 1e-2;
  const double mu = 0.2;
  const FleetModel fleet(Homogeneous(n, lambda, mu, n), FleetProtocol::kRaft);
  const ConsensusRepairModel reference({n, lambda, mu, n});
  for (const double t : {100.0, 1000.0, 8766.0}) {
    const auto reliability = fleet.TryMissionReliability(t, false, {});
    ASSERT_TRUE(reliability.ok());
    const Probability outage = reference.UnavailabilityWithin(2, t);
    EXPECT_NEAR(reliability->complement(), outage.value(), 1e-9) << t;
  }
}

TEST(FleetModelTest, SteadyStateMatchesIndependentNodeClosedForm) {
  // With per-node repair (servers >= n) the nodes are independent M/M/1 machines:
  // P(up) = mu / (lambda + mu), availability = P(Binomial(n, up) >= quorum).
  const int n = 3;
  const double lambda = 0.02;
  const double mu = 0.5;
  const FleetModel fleet(Homogeneous(n, lambda, mu, n), FleetProtocol::kRaft);
  const auto availability = fleet.TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  const double up = mu / (lambda + mu);
  const double expected = 3 * up * up * (1 - up) + up * up * up;
  EXPECT_NEAR(availability->value(), expected, 1e-12);
}

TEST(FleetModelTest, MttuMatchesBirthDeathHittingTimeRecursion) {
  // Golden closed form: for a birth-death chain with birth b_k and death d_k, the expected
  // time from k to k+1 is h_k = 1/b_k + (d_k/b_k) h_{k-1}; MTTU = sum of h_k up to the
  // outage boundary.
  const int n = 5;
  const double lambda = 3e-3;
  const double mu = 0.4;
  const int servers = 2;
  const FleetModel fleet(Homogeneous(n, lambda, mu, servers), FleetProtocol::kRaft);
  const auto mttu = fleet.TryMeanTimeToUnavailability(false, {});
  ASSERT_TRUE(mttu.ok());
  // Outage at 3 failed (alive < 3): climb k = 0 -> 3.
  double expected = 0.0;
  double h_prev = 0.0;
  for (int k = 0; k < 3; ++k) {
    const double birth = (n - k) * lambda;
    const double death = std::min(k, servers) * mu;
    const double h_k = 1.0 / birth + death / birth * h_prev;
    expected += h_k;
    h_prev = h_k;
  }
  EXPECT_NEAR(*mttu / expected, 1.0, 1e-10);
}

// -----------------------------------------------------------------------------------------
// Heterogeneous behavior.

TEST(FleetModelTest, AgedVintageLowersAvailability) {
  FleetParams fresh;
  fresh.classes = {{.count = 5, .failure_rate = 1e-3}};
  fresh.repair_rate = 0.05;
  FleetParams mixed;
  mixed.classes = {{.count = 3, .failure_rate = 1e-3},
                   {.count = 2, .failure_rate = 2e-2}};  // Worn-out vintage.
  mixed.repair_rate = 0.05;
  const auto fresh_avail =
      FleetModel(fresh, FleetProtocol::kRaft).TrySteadyStateAvailability(false, {});
  const auto mixed_avail =
      FleetModel(mixed, FleetProtocol::kRaft).TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(fresh_avail.ok());
  ASSERT_TRUE(mixed_avail.ok());
  EXPECT_LT(mixed_avail->value(), fresh_avail->value());
}

TEST(FleetModelTest, FromCurveFreezesHazardAtAge) {
  const WeibullFaultCurve curve(2.0, 1000.0);
  const FleetClass cls = FleetClass::FromCurve(curve, 500.0, 4);
  EXPECT_EQ(cls.count, 4);
  EXPECT_NEAR(cls.failure_rate, curve.HazardRate(500.0), 1e-15);
}

TEST(FleetModelTest, ReconfigurationWindowIsLessAvailable) {
  FleetParams params;
  params.classes = {{.count = 3, .failure_rate = 5e-3, .in_old = true, .in_new = true},
                    {.count = 2, .failure_rate = 5e-3, .in_old = false, .in_new = true}};
  params.repair_rate = 0.1;
  const FleetModel model(params, FleetProtocol::kRaft);
  const auto steady = model.TrySteadyStateAvailability(false, {});
  const auto joint = model.TrySteadyStateAvailability(true, {});
  ASSERT_TRUE(steady.ok());
  ASSERT_TRUE(joint.ok());
  EXPECT_LT(joint->value(), steady->value());
  const auto steady_mttu = model.TryMeanTimeToUnavailability(false, {});
  const auto joint_mttu = model.TryMeanTimeToUnavailability(true, {});
  ASSERT_TRUE(steady_mttu.ok());
  ASSERT_TRUE(joint_mttu.ok());
  EXPECT_LT(*joint_mttu, *steady_mttu);
}

TEST(FleetModelTest, NoRepairMeansZeroSteadyAvailability) {
  const FleetModel model(Homogeneous(3, 1e-3, 0.0, 1), FleetProtocol::kRaft);
  const auto availability = model.TrySteadyStateAvailability(false, {});
  ASSERT_TRUE(availability.ok());
  EXPECT_DOUBLE_EQ(availability->value(), 0.0);
}

TEST(FleetModelTest, DowntimeHoursPerYear) {
  EXPECT_NEAR(FleetModel::DowntimeHoursPerYear(Probability::FromComplement(1e-3)),
              kHoursPerYear * 1e-3, 1e-9);
}

TEST(FleetModelTest, SolversHonorCancellation) {
  const FleetModel model(Homogeneous(5, 1e-3, 0.1, 2), FleetProtocol::kRaft);
  CancelToken token;
  token.Cancel();
  const CtmcSolveOptions options{.cancel = &token};
  EXPECT_EQ(model.TrySteadyStateAvailability(false, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(model.TryMeanTimeToUnavailability(false, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(model.TryMissionReliability(1000.0, false, options).status().code(),
            StatusCode::kCancelled);
}

TEST(FleetModelTest, ProgressCellAdvances) {
  std::atomic<uint64_t> steps{0};
  const FleetModel model(Homogeneous(3, 1e-2, 0.2, 3), FleetProtocol::kRaft);
  const auto reliability =
      model.TryMissionReliability(10000.0, false, {.progress = &steps});
  ASSERT_TRUE(reliability.ok());
  EXPECT_GT(steps.load(), 0u);
}

}  // namespace
}  // namespace probcon
