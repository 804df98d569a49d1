#include "src/faultmodel/estimator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/check.h"
#include "src/prob/kahan.h"

namespace probcon {
namespace {

// Profile score for the Weibull shape parameter k with left truncation and right censoring.
// For fixed k the scale MLE satisfies lambda^k = sum(t_i^k - e_i^k) / D with D = #failures;
// substituting back, the score in k is
//   g(k) = D/k + sum_{failures} log t_i - D * sum(t^k log t - e^k log e) / sum(t^k - e^k).
double WeibullProfileScore(double k, const std::vector<LifetimeObservation>& observations) {
  double failures = 0.0;
  KahanSum log_t_failures;
  KahanSum powered;           // sum t^k - e^k
  KahanSum powered_weighted;  // sum t^k log t - e^k log e
  for (const auto& obs : observations) {
    if (obs.failed) {
      failures += 1.0;
      log_t_failures.Add(std::log(obs.exit_age));
    }
    const double tk = std::pow(obs.exit_age, k);
    powered.Add(tk);
    powered_weighted.Add(tk * std::log(obs.exit_age));
    if (obs.entry_age > 0.0) {
      const double ek = std::pow(obs.entry_age, k);
      powered.Add(-ek);
      powered_weighted.Add(-ek * std::log(obs.entry_age));
    }
  }
  return failures / k + log_t_failures.Total() -
         failures * powered_weighted.Total() / powered.Total();
}

}  // namespace

Status ValidateObservations(const std::vector<LifetimeObservation>& observations) {
  if (observations.empty()) {
    return InvalidArgumentError("no observations");
  }
  for (const auto& obs : observations) {
    if (obs.entry_age < 0.0 || !(obs.exit_age > obs.entry_age)) {
      return InvalidArgumentError("observation interval must satisfy 0 <= entry < exit");
    }
  }
  return Status::Ok();
}

Result<ConstantFaultCurve> FitExponential(
    const std::vector<LifetimeObservation>& observations) {
  RETURN_IF_ERROR(ValidateObservations(observations));
  double failures = 0.0;
  KahanSum exposure;
  for (const auto& obs : observations) {
    if (obs.failed) {
      failures += 1.0;
    }
    exposure.Add(obs.exit_age - obs.entry_age);
  }
  if (failures == 0.0) {
    return InvalidArgumentError("exponential MLE needs at least one failure");
  }
  return ConstantFaultCurve(failures / exposure.Total());
}

Result<WeibullFaultCurve> FitWeibull(const std::vector<LifetimeObservation>& observations) {
  RETURN_IF_ERROR(ValidateObservations(observations));
  int failures = 0;
  double first_failure_age = -1.0;
  bool distinct_failure_ages = false;
  for (const auto& obs : observations) {
    if (!obs.failed) {
      continue;
    }
    ++failures;
    if (first_failure_age < 0.0) {
      first_failure_age = obs.exit_age;
    } else if (obs.exit_age != first_failure_age) {
      distinct_failure_ages = true;
    }
  }
  if (failures < 2 || !distinct_failure_ages) {
    return InvalidArgumentError("Weibull MLE needs >= 2 failures at distinct ages");
  }

  // The profile score is decreasing in k; bisect for its root.
  double lo = 0.05;
  double hi = 50.0;
  double score_lo = WeibullProfileScore(lo, observations);
  double score_hi = WeibullProfileScore(hi, observations);
  if (score_lo < 0.0 || score_hi > 0.0) {
    return InvalidArgumentError("Weibull shape MLE outside [0.05, 50]");
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (WeibullProfileScore(mid, observations) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double shape = 0.5 * (lo + hi);

  KahanSum powered;
  for (const auto& obs : observations) {
    powered.Add(std::pow(obs.exit_age, shape));
    if (obs.entry_age > 0.0) {
      powered.Add(-std::pow(obs.entry_age, shape));
    }
  }
  const double scale = std::pow(powered.Total() / failures, 1.0 / shape);
  RETURN_IF_ERROR(WeibullFaultCurve::Validate(shape, scale));
  return WeibullFaultCurve(shape, scale);
}

Result<std::vector<TraceFaultCurve::Point>> NelsonAalen(
    const std::vector<LifetimeObservation>& observations) {
  RETURN_IF_ERROR(ValidateObservations(observations));
  // Group failures by age.
  std::map<double, int> failures_at;
  for (const auto& obs : observations) {
    if (obs.failed) {
      failures_at[obs.exit_age] += 1;
    }
  }
  if (failures_at.empty()) {
    return InvalidArgumentError("Nelson-Aalen needs at least one failure");
  }

  std::vector<TraceFaultCurve::Point> points;
  points.reserve(failures_at.size() + 1);
  KahanSum cumulative;
  points.push_back({0.0, 0.0});
  for (const auto& [age, count] : failures_at) {
    // Risk set: devices under observation just before `age`.
    int at_risk = 0;
    for (const auto& obs : observations) {
      if (obs.entry_age < age && obs.exit_age >= age) {
        ++at_risk;
      }
    }
    CHECK_GT(at_risk, 0);
    cumulative.Add(static_cast<double>(count) / static_cast<double>(at_risk));
    points.push_back({age, cumulative.Total()});
  }
  return points;
}

double LogLikelihood(const FaultCurve& curve,
                     const std::vector<LifetimeObservation>& observations) {
  KahanSum ll;
  for (const auto& obs : observations) {
    if (obs.failed) {
      ll.Add(std::log(std::max(curve.HazardRate(obs.exit_age), 1e-300)));
    }
    ll.Add(-(curve.CumulativeHazard(obs.exit_age) - curve.CumulativeHazard(obs.entry_age)));
  }
  return ll.Total();
}

}  // namespace probcon
