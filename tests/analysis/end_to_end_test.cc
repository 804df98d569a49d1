#include "src/analysis/end_to_end.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/faultmodel/afr.h"

namespace probcon {
namespace {

EndToEndParams BaseParams() {
  EndToEndParams params;
  params.consensus.safe = Probability::FromComplement(1e-6);
  params.consensus.live = Probability::FromComplement(1e-4);
  params.consensus.safe_and_live = Probability::FromComplement(1e-4);
  params.window_hours = 720.0;  // Monthly analysis window.
  params.mean_time_to_recover = 0.5;
  params.data_loss_given_violation = 1.0;
  return params;
}

TEST(EndToEndTest, ValidateAcceptsTheLimitsAndRejectsOnePast) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const auto valid = [](auto mutate) {
    EndToEndParams params = BaseParams();
    mutate(params);
    return ValidateEndToEndParams(params).ok();
  };
  EXPECT_TRUE(valid([](EndToEndParams&) {}));
  EXPECT_TRUE(valid([&](EndToEndParams& p) { p.window_hours = kTiny; }));
  EXPECT_FALSE(valid([](EndToEndParams& p) { p.window_hours = 0.0; }));
  EXPECT_TRUE(valid([&](EndToEndParams& p) { p.window_hours = kMax; }));
  EXPECT_FALSE(valid([&](EndToEndParams& p) { p.window_hours = kInf; }));
  EXPECT_TRUE(valid([](EndToEndParams& p) { p.mean_time_to_recover = 0.0; }));
  EXPECT_FALSE(valid([&](EndToEndParams& p) { p.mean_time_to_recover = -kTiny; }));
  EXPECT_FALSE(valid([&](EndToEndParams& p) { p.mean_time_to_recover = kInf; }));
  EXPECT_TRUE(valid([&](EndToEndParams& p) { p.mission_hours = kTiny; }));
  EXPECT_FALSE(valid([](EndToEndParams& p) { p.mission_hours = 0.0; }));
  EXPECT_FALSE(valid([&](EndToEndParams& p) { p.mission_hours = kInf; }));
  EXPECT_TRUE(valid([](EndToEndParams& p) { p.data_loss_given_violation = 0.0; }));
  EXPECT_TRUE(valid([](EndToEndParams& p) { p.data_loss_given_violation = 1.0; }));
  EXPECT_FALSE(valid([&](EndToEndParams& p) { p.data_loss_given_violation = -kTiny; }));
  EXPECT_FALSE(valid(
      [](EndToEndParams& p) { p.data_loss_given_violation = std::nextafter(1.0, 2.0); }));
  EXPECT_FALSE(valid([](EndToEndParams& p) { p.data_loss_given_violation = std::nan(""); }));
}

TEST(EndToEndTest, AvailabilityMatchesRenewalFormula) {
  const auto params = BaseParams();
  const auto report = ComputeEndToEnd(params);
  const double rate = -std::log1p(-1e-4) / 720.0;
  const double expected_unavail = 0.5 / (1.0 / rate + 0.5);
  EXPECT_NEAR(report.availability.complement(), expected_unavail,
              expected_unavail * 1e-9);
}

TEST(EndToEndTest, SlowRecoveryDestroysAvailability) {
  auto params = BaseParams();
  const auto fast = ComputeEndToEnd(params);
  params.mean_time_to_recover = 48.0;  // Two-day manual recovery.
  const auto slow = ComputeEndToEnd(params);
  // Same consensus liveness, ~2 fewer availability nines.
  EXPECT_GT(fast.availability.nines(), slow.availability.nines() + 1.5);
  EXPECT_GT(slow.outage_minutes_per_year, fast.outage_minutes_per_year * 50.0);
}

TEST(EndToEndTest, InstantRecoveryIsFullyAvailable) {
  auto params = BaseParams();
  params.mean_time_to_recover = 0.0;
  const auto report = ComputeEndToEnd(params);
  EXPECT_DOUBLE_EQ(report.availability.complement(), 0.0);
  EXPECT_DOUBLE_EQ(report.outage_minutes_per_year, 0.0);
}

TEST(EndToEndTest, PerfectLivenessMeansNoOutages) {
  auto params = BaseParams();
  params.consensus.live = Probability::One();
  const auto report = ComputeEndToEnd(params);
  EXPECT_DOUBLE_EQ(report.availability.value(), 1.0);
}

TEST(EndToEndTest, ForkPreservationRescuesDurability) {
  auto params = BaseParams();
  const auto lossy = ComputeEndToEnd(params);
  params.data_loss_given_violation = 0.01;  // Forks preserved 99% of the time.
  const auto preserved = ComputeEndToEnd(params);
  // The paper's point: an unsafe system can still be durable.
  EXPECT_NEAR(preserved.mission_durability.complement(),
              lossy.mission_durability.complement() * 0.01,
              lossy.mission_durability.complement() * 0.01 * 0.01);
}

TEST(EndToEndTest, DurabilityScalesWithMission) {
  auto params = BaseParams();
  params.mission_hours = kHoursPerYear;
  const auto one_year = ComputeEndToEnd(params);
  params.mission_hours = 10.0 * kHoursPerYear;
  const auto ten_years = ComputeEndToEnd(params);
  EXPECT_NEAR(ten_years.mission_durability.complement(),
              one_year.mission_durability.complement() * 10.0,
              one_year.mission_durability.complement());
}

TEST(EndToEndTest, OutageMinutesSanity) {
  // 1e-4 monthly unliveness, 30-minute recovery: ~12 outages expected in 1e4 months...
  // rate = 1.0000e-4/720h; per year ~1.217e-3 outages * 30 min ~ 0.0365 min/yr.
  const auto report = ComputeEndToEnd(BaseParams());
  EXPECT_NEAR(report.outage_minutes_per_year, 0.0365, 0.002);
}

}  // namespace
}  // namespace probcon
