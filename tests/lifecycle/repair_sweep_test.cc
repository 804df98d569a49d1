#include "src/lifecycle/repair_sweep.h"

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"

namespace probcon {
namespace {

FleetParams FivePlex() {
  FleetParams params;
  params.classes = {{.count = 5, .failure_rate = 1e-3}};
  params.repair_servers = 1;
  return params;
}

TEST(RepairSweepTest, ValidateGridAcceptsTheLimitsAndRejectsOnePast) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(ValidateGeometricRepairRates(0.1, 1.0, 1).ok());
  EXPECT_FALSE(ValidateGeometricRepairRates(0.1, 1.0, 0).ok());
  EXPECT_TRUE(ValidateGeometricRepairRates(0.5, 0.5, 4).ok());
  EXPECT_FALSE(ValidateGeometricRepairRates(std::nextafter(0.5, 1.0), 0.5, 4).ok());
  EXPECT_TRUE(ValidateGeometricRepairRates(kTiny, 1.0, 4).ok());
  EXPECT_FALSE(ValidateGeometricRepairRates(0.0, 1.0, 4).ok());
  EXPECT_TRUE(ValidateGeometricRepairRates(0.1, kMax, 4).ok());
  EXPECT_EQ(
      ValidateGeometricRepairRates(0.1, std::numeric_limits<double>::infinity(), 4).code(),
      StatusCode::kInvalidArgument);
}

TEST(RepairSweepTest, ValidateSweepAcceptsTheLimitsAndRejectsOnePast) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(ValidateRepairRateSweep({0.5}, std::nullopt).ok());
  EXPECT_FALSE(ValidateRepairRateSweep({}, std::nullopt).ok());
  EXPECT_TRUE(ValidateRepairRateSweep({kTiny, kMax}, std::nullopt).ok());
  EXPECT_FALSE(ValidateRepairRateSweep({0.5, 0.0}, std::nullopt).ok());
  EXPECT_FALSE(
      ValidateRepairRateSweep({0.5, std::numeric_limits<double>::infinity()}, std::nullopt)
          .ok());
  // The target is an open interval: its neighbours inside pass, 0 and 1 do not.
  EXPECT_TRUE(ValidateRepairRateSweep({0.5}, kTiny).ok());
  EXPECT_FALSE(ValidateRepairRateSweep({0.5}, 0.0).ok());
  EXPECT_TRUE(ValidateRepairRateSweep({0.5}, std::nextafter(1.0, 0.0)).ok());
  EXPECT_EQ(ValidateRepairRateSweep({0.5}, 1.0).code(), StatusCode::kInvalidArgument);
}

TEST(RepairSweepTest, GeometricGridSpansEndpointsLogUniformly) {
  const std::vector<double> rates = GeometricRepairRates(0.01, 10.0, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_NEAR(rates.front(), 0.01, 1e-12);
  EXPECT_NEAR(rates.back(), 10.0, 1e-9);
  // Constant ratio between neighbors.
  EXPECT_NEAR(rates[1] / rates[0], rates[2] / rates[1], 1e-9);
  EXPECT_NEAR(rates[2] / rates[1], rates[3] / rates[2], 1e-9);
}

TEST(RepairSweepTest, SinglePointGridIsTheMinRate) {
  const std::vector<double> rates = GeometricRepairRates(0.5, 2.0, 1);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates.front(), 0.5);
}

TEST(RepairSweepTest, AvailabilityIsMonotoneInRepairRate) {
  const auto result = TryRepairRateSweep(FivePlex(), FleetProtocol::kRaft,
                                         GeometricRepairRates(0.001, 1.0, 8),
                                         std::nullopt, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->points.size(), 8u);
  for (size_t i = 1; i < result->points.size(); ++i) {
    EXPECT_GT(result->points[i].availability.value(),
              result->points[i - 1].availability.value());
    EXPECT_GT(result->points[i].mttu_hours, result->points[i - 1].mttu_hours);
    EXPECT_LT(result->points[i].downtime_hours_per_year,
              result->points[i - 1].downtime_hours_per_year);
  }
  EXPECT_FALSE(result->first_rate_meeting_target.has_value());  // None requested.
}

TEST(RepairSweepTest, FindsFirstRateMeetingTarget) {
  const std::vector<double> rates = GeometricRepairRates(0.001, 10.0, 12);
  const auto result =
      TryRepairRateSweep(FivePlex(), FleetProtocol::kRaft, rates, 0.99999, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->first_rate_meeting_target.has_value());
  const double threshold = *result->first_rate_meeting_target;
  // Every point at or past the threshold meets the target; every one before misses it.
  for (const RepairSweepPoint& point : result->points) {
    if (point.repair_rate >= threshold) {
      EXPECT_GE(point.availability.value(), 0.99999) << point.repair_rate;
    } else {
      EXPECT_LT(point.availability.value(), 0.99999) << point.repair_rate;
    }
  }
}

TEST(RepairSweepTest, UnreachableTargetReportsNoRate) {
  const auto result = TryRepairRateSweep(FivePlex(), FleetProtocol::kRaft,
                                         {0.0001, 0.0002}, 0.9999999, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->first_rate_meeting_target.has_value());
}

TEST(RepairSweepTest, SweepIgnoresBaseRepairRate) {
  // The swept rate replaces params.repair_rate point by point; the base value is inert.
  FleetParams with_base = FivePlex();
  with_base.repair_rate = 123.0;
  const auto swept_a =
      TryRepairRateSweep(FivePlex(), FleetProtocol::kRaft, {0.5}, std::nullopt, {});
  const auto swept_b =
      TryRepairRateSweep(with_base, FleetProtocol::kRaft, {0.5}, std::nullopt, {});
  ASSERT_TRUE(swept_a.ok());
  ASSERT_TRUE(swept_b.ok());
  EXPECT_DOUBLE_EQ(swept_a->points[0].availability.value(),
                   swept_b->points[0].availability.value());
}

TEST(RepairSweepTest, CancellationUnwindsBetweenPoints) {
  CancelToken token;
  token.Cancel();
  const auto result =
      TryRepairRateSweep(FivePlex(), FleetProtocol::kRaft,
                         GeometricRepairRates(0.01, 1.0, 4), std::nullopt,
                         {.cancel = &token});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace probcon
