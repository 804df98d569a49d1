#include "src/faultmodel/round_schedule.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace probcon {

Status RoundSchedule::Validate(double round_hours,
                               const std::vector<std::vector<double>>& round_probabilities) {
  if (!(round_hours > 0.0) || !std::isfinite(round_hours)) {
    return InvalidArgumentError("round_hours must be positive and finite");
  }
  if (round_probabilities.empty()) {
    return InvalidArgumentError("schedule needs at least one round");
  }
  const size_t n = round_probabilities.front().size();
  if (n == 0) {
    return InvalidArgumentError("schedule needs at least one node");
  }
  for (size_t r = 0; r < round_probabilities.size(); ++r) {
    if (round_probabilities[r].size() != n) {
      std::ostringstream os;
      os << "round " << r << " has " << round_probabilities[r].size() << " probabilities, want "
         << n;
      return InvalidArgumentError(os.str());
    }
    for (size_t i = 0; i < n; ++i) {
      const double p = round_probabilities[r][i];
      // p == 1 would mean an infinite hazard increment; the trace-curve round trip (and any
      // survival-form math) excludes it.
      if (!(p >= 0.0) || !(p < 1.0) || !std::isfinite(p)) {
        std::ostringstream os;
        os << "round " << r << " node " << i << " probability " << p << " outside [0, 1)";
        return InvalidArgumentError(os.str());
      }
    }
  }
  return Status::Ok();
}

RoundSchedule::RoundSchedule(double round_hours,
                             std::vector<std::vector<double>> round_probabilities)
    : round_hours_(round_hours), round_probabilities_(std::move(round_probabilities)) {
  const Status valid = Validate(round_hours_, round_probabilities_);
  CHECK(valid.ok()) << valid.ToString();
}

RoundSchedule RoundSchedule::FromCurves(const std::vector<const FaultCurve*>& curves,
                                        const std::vector<double>& ages, double round_hours,
                                        int rounds) {
  CHECK(!curves.empty());
  CHECK_EQ(curves.size(), ages.size());
  CHECK_GT(rounds, 0);
  CHECK_GT(round_hours, 0.0);
  std::vector<std::vector<double>> matrix(rounds, std::vector<double>(curves.size(), 0.0));
  for (size_t i = 0; i < curves.size(); ++i) {
    CHECK(curves[i] != nullptr);
    CHECK_GE(ages[i], 0.0);
    for (int r = 0; r < rounds; ++r) {
      const double start = ages[i] + r * round_hours;
      matrix[r][i] = curves[i]->FailureProbability(start, start + round_hours);
    }
  }
  return RoundSchedule(round_hours, std::move(matrix));
}

RoundSchedule RoundSchedule::FromCurve(const FaultCurve& curve, int n, double age,
                                       double round_hours, int rounds) {
  CHECK_GT(n, 0);
  const std::vector<const FaultCurve*> curves(static_cast<size_t>(n), &curve);
  const std::vector<double> ages(static_cast<size_t>(n), age);
  return FromCurves(curves, ages, round_hours, rounds);
}

const std::vector<double>& RoundSchedule::RoundProbabilities(int round) const {
  CHECK(round >= 0 && round < rounds());
  return round_probabilities_[round];
}

std::vector<double> RoundSchedule::CumulativeFailureProbabilities() const {
  // Sum log survival per node and return -expm1 of it: exact in the small complement,
  // where 1 - prod(1 - p) would cancel.
  std::vector<double> cumulative(static_cast<size_t>(n()), 0.0);
  for (int i = 0; i < n(); ++i) {
    double log_survival = 0.0;
    for (int r = 0; r < rounds(); ++r) {
      log_survival += std::log1p(-round_probabilities_[r][i]);
    }
    cumulative[i] = -std::expm1(log_survival);
  }
  return cumulative;
}

std::unique_ptr<FaultCurve> RoundSchedule::NodeCurve(int node) const {
  CHECK(node >= 0 && node < n());
  // Knots at round boundaries with H_r = sum_{s<r} -ln(1 - p^(s)): the trace curve
  // interpolates H linearly between knots, so its window failure probability over round r
  // is 1 - exp(-(H_{r+1} - H_r)) = p^(r) exactly.
  std::vector<TraceFaultCurve::Point> points;
  points.reserve(static_cast<size_t>(rounds()) + 1);
  double cumulative_hazard = 0.0;
  points.push_back({0.0, 0.0});
  for (int r = 0; r < rounds(); ++r) {
    cumulative_hazard += -std::log1p(-round_probabilities_[r][node]);
    points.push_back({(r + 1) * round_hours_, cumulative_hazard});
  }
  return std::make_unique<TraceFaultCurve>(std::move(points));
}

}  // namespace probcon
