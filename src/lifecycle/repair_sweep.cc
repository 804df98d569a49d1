#include "src/lifecycle/repair_sweep.h"

#include <cmath>
#include <utility>

#include "src/common/cancellation.h"
#include "src/common/check.h"

namespace probcon {

Status ValidateGeometricRepairRates(double min_rate, double max_rate, int points) {
  if (!(min_rate > 0.0) || !(max_rate >= min_rate) || !std::isfinite(max_rate) ||
      points < 1) {
    return InvalidArgumentError(
        "a repair-rate grid requires finite 0 < min_rate <= max_rate and points >= 1");
  }
  return Status::Ok();
}

std::vector<double> GeometricRepairRates(double min_rate, double max_rate, int points) {
  const Status valid = ValidateGeometricRepairRates(min_rate, max_rate, points);
  CHECK(valid.ok()) << valid.ToString();
  std::vector<double> rates;
  rates.reserve(static_cast<size_t>(points));
  if (points == 1) {
    rates.push_back(min_rate);
    return rates;
  }
  // Endpoints are pinned exactly (log/exp round-trips perturb the last ulp, and the serve
  // layer's canonical keys want a 2-point grid to equal its explicit spelling).
  const double log_min = std::log(min_rate);
  const double log_max = std::log(max_rate);
  rates.push_back(min_rate);
  for (int i = 1; i < points - 1; ++i) {
    const double alpha = static_cast<double>(i) / (points - 1);
    rates.push_back(std::exp(log_min + alpha * (log_max - log_min)));
  }
  rates.push_back(max_rate);
  return rates;
}

Status ValidateRepairRateSweep(const std::vector<double>& repair_rates,
                               std::optional<double> target_availability) {
  if (repair_rates.empty()) {
    return InvalidArgumentError("a repair sweep requires at least one repair rate");
  }
  for (const double rate : repair_rates) {
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      return InvalidArgumentError("repair rates must be positive and finite");
    }
  }
  if (target_availability.has_value() &&
      !(*target_availability > 0.0 && *target_availability < 1.0)) {
    return InvalidArgumentError("target_availability must lie in (0, 1)");
  }
  return Status::Ok();
}

Result<RepairSweepResult> TryRepairRateSweep(const FleetParams& params, FleetProtocol protocol,
                                             const std::vector<double>& repair_rates,
                                             std::optional<double> target_availability,
                                             const CtmcSolveOptions& options) {
  const Status valid = ValidateRepairRateSweep(repair_rates, target_availability);
  CHECK(valid.ok()) << valid.ToString();
  RepairSweepResult result;
  result.points.reserve(repair_rates.size());
  for (const double rate : repair_rates) {
    if (IsCancelled(options.cancel)) {
      return CancelledError("repair sweep cancelled");
    }
    FleetParams swept = params;
    swept.repair_rate = rate;
    const FleetModel model(std::move(swept), protocol);
    auto availability =
        model.TrySteadyStateAvailability(/*reconfiguration=*/false, options);
    if (!availability.ok()) {
      return availability.status();
    }
    auto mttu = model.TryMeanTimeToUnavailability(/*reconfiguration=*/false, options);
    if (!mttu.ok()) {
      return mttu.status();
    }
    RepairSweepPoint point;
    point.repair_rate = rate;
    point.availability = *availability;
    point.mttu_hours = *mttu;
    point.downtime_hours_per_year = FleetModel::DowntimeHoursPerYear(*availability);
    result.points.push_back(point);
  }
  if (target_availability.has_value()) {
    // Smallest qualifying rate: availability is monotone in the repair rate, so scan the
    // sorted-by-rate view rather than trusting input order.
    std::optional<double> best;
    for (const RepairSweepPoint& point : result.points) {
      if (point.availability.value() >= *target_availability &&
          (!best.has_value() || point.repair_rate < *best)) {
        best = point.repair_rate;
      }
    }
    result.first_rate_meeting_target = best;
  }
  return result;
}

}  // namespace probcon
