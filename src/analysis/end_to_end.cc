#include "src/analysis/end_to_end.h"

#include <cmath>

#include "src/common/check.h"
#include "src/faultmodel/afr.h"

namespace probcon {

Status ValidateEndToEndParams(const EndToEndParams& params) {
  if (!std::isfinite(params.window_hours) || !std::isfinite(params.mean_time_to_recover) ||
      !std::isfinite(params.mission_hours) || !(params.window_hours > 0.0) ||
      !(params.mean_time_to_recover >= 0.0) || !(params.mission_hours > 0.0)) {
    return InvalidArgumentError(
        "end_to_end requires finite window_hours > 0, mttr_hours >= 0, mission_hours > 0");
  }
  if (!(params.data_loss_given_violation >= 0.0 && params.data_loss_given_violation <= 1.0)) {
    return InvalidArgumentError("data_loss_given_violation must lie in [0, 1]");
  }
  return Status::Ok();
}

EndToEndReport ComputeEndToEnd(const EndToEndParams& params) {
  const Status valid = ValidateEndToEndParams(params);
  CHECK(valid.ok()) << valid.ToString();

  EndToEndReport report;

  // Outage arrivals: rate such that P(>=1 outage per window) equals the unliveness.
  const double unlive = params.consensus.live.complement();
  const double outage_rate = -std::log1p(-unlive) / params.window_hours;  // Per hour.
  if (params.mean_time_to_recover == 0.0 || outage_rate == 0.0) {
    // Instant recovery (or no outages): availability is only limited by liveness itself
    // being restored within the window — model as fully available.
    report.availability = outage_rate == 0.0
                              ? Probability::One()
                              : Probability::FromComplement(0.0);
  } else {
    // Alternating renewal process: unavailability = MTTR / (MTBF + MTTR), with
    // MTBF = 1 / outage_rate.
    const double mtbf = 1.0 / outage_rate;
    const double unavailability =
        params.mean_time_to_recover / (mtbf + params.mean_time_to_recover);
    report.availability = Probability::FromComplement(unavailability);
  }
  report.outage_minutes_per_year =
      report.availability.complement() * kHoursPerYear * 60.0;

  // Durability: safety incidents arrive at the unsafety rate, thinned by the probability
  // that an incident destroys data (fork preservation keeps data recoverable).
  const double unsafe = params.consensus.safe.complement();
  const double violation_rate = -std::log1p(-unsafe) / params.window_hours;
  const double loss_rate = violation_rate * params.data_loss_given_violation;
  report.mission_durability =
      Probability::FromComplement(-std::expm1(-loss_rate * params.mission_hours));
  return report;
}

}  // namespace probcon
