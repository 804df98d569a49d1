#include "src/faultmodel/fault_curve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/common/check.h"

namespace probcon {
namespace {

// Adaptive Simpson integration for curves without closed-form cumulative hazards.
double SimpsonStep(const FaultCurve& curve, double a, double fa, double b, double fb) {
  const double m = 0.5 * (a + b);
  const double fm = curve.HazardRate(m);
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double AdaptiveSimpson(const FaultCurve& curve, double a, double fa, double b, double fb,
                       double whole, double tolerance, int depth) {
  const double m = 0.5 * (a + b);
  const double fm = curve.HazardRate(m);
  const double left = SimpsonStep(curve, a, fa, m, fm);
  const double right = SimpsonStep(curve, m, fm, b, fb);
  const double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * tolerance) {
    return left + right + delta / 15.0;
  }
  return AdaptiveSimpson(curve, a, fa, m, fm, left, 0.5 * tolerance, depth - 1) +
         AdaptiveSimpson(curve, m, fm, b, fb, right, 0.5 * tolerance, depth - 1);
}

}  // namespace

double FaultCurve::CumulativeHazard(double t) const {
  CHECK_GE(t, 0.0);
  if (t == 0.0) {
    return 0.0;
  }
  const double fa = HazardRate(0.0);
  const double fb = HazardRate(t);
  const double whole = SimpsonStep(*this, 0.0, fa, t, fb);
  return AdaptiveSimpson(*this, 0.0, fa, t, fb, whole, 1e-12, 40);
}

double FaultCurve::Survival(double t) const { return std::exp(-CumulativeHazard(t)); }

double FaultCurve::FailureProbability(double t0, double t1) const {
  CHECK(t0 >= 0.0 && t1 >= t0) << "bad window [" << t0 << "," << t1 << "]";
  const double delta_hazard = CumulativeHazard(t1) - CumulativeHazard(t0);
  if (std::isnan(delta_hazard)) {
    return delta_hazard;  // inf - inf: std::max below would turn it into 0.
  }
  return -std::expm1(-std::max(0.0, delta_hazard));
}

double FaultCurve::SampleFailureAge(double current_age, double unit_uniform) const {
  CHECK(unit_uniform >= 0.0 && unit_uniform < 1.0);
  // Invert S(t | current_age) = u, i.e. find t with H(t) - H(current_age) = -log(u').
  const double target = CumulativeHazard(current_age) - std::log1p(-unit_uniform);
  // Bracket by doubling, then bisect.
  double lo = current_age;
  double hi = std::max(current_age, 1.0);
  int expansions = 0;
  while (CumulativeHazard(hi) < target && expansions < 200) {
    lo = hi;
    hi *= 2.0;
    ++expansions;
  }
  if (CumulativeHazard(hi) < target) {
    return hi;  // Hazard saturates; report the far horizon.
  }
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (CumulativeHazard(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// ---------------------------------------------------------------------------
// ConstantFaultCurve

Status ConstantFaultCurve::Validate(double rate) {
  if (!(rate >= 0.0) || !std::isfinite(rate)) {
    return InvalidArgumentError("constant curve requires a finite rate >= 0");
  }
  return Status::Ok();
}

ConstantFaultCurve::ConstantFaultCurve(double rate) : rate_(rate) {
  const Status valid = Validate(rate);
  CHECK(valid.ok()) << valid.ToString();
}

Status ConstantFaultCurve::ValidateWindowProbability(double p, double window) {
  if (!(p >= 0.0 && p < 1.0) || !(window > 0.0) || !std::isfinite(window)) {
    return InvalidArgumentError(
        "constant curve via window_probability requires window_probability in [0, 1) and a "
        "finite window > 0");
  }
  return Status::Ok();
}

ConstantFaultCurve ConstantFaultCurve::FromWindowProbability(double p, double window) {
  const Status valid = ValidateWindowProbability(p, window);
  CHECK(valid.ok()) << valid.ToString();
  return ConstantFaultCurve(-std::log1p(-p) / window);
}

double ConstantFaultCurve::SampleFailureAge(double current_age, double unit_uniform) const {
  if (rate_ == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return current_age - std::log1p(-unit_uniform) / rate_;
}

std::string ConstantFaultCurve::Describe() const {
  std::ostringstream os;
  os << "constant(rate=" << rate_ << ")";
  return os.str();
}

std::unique_ptr<FaultCurve> ConstantFaultCurve::Clone() const {
  return std::make_unique<ConstantFaultCurve>(*this);
}

// ---------------------------------------------------------------------------
// WeibullFaultCurve

Status WeibullFaultCurve::Validate(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0) || !std::isfinite(shape) || !std::isfinite(scale)) {
    return InvalidArgumentError("weibull curve requires finite shape > 0 and scale > 0");
  }
  return Status::Ok();
}

WeibullFaultCurve::WeibullFaultCurve(double shape, double scale)
    : shape_(shape), scale_(scale) {
  const Status valid = Validate(shape, scale);
  CHECK(valid.ok()) << valid.ToString();
}

double WeibullFaultCurve::HazardRate(double t) const {
  CHECK_GE(t, 0.0);
  if (t == 0.0) {
    if (shape_ < 1.0) {
      // Hazard diverges at 0 for infant-mortality shapes; clamp to a large finite value so
      // numeric consumers stay well-defined.
      return 1e12;
    }
    return shape_ == 1.0 ? 1.0 / scale_ : 0.0;
  }
  return (shape_ / scale_) * std::pow(t / scale_, shape_ - 1.0);
}

double WeibullFaultCurve::CumulativeHazard(double t) const {
  CHECK_GE(t, 0.0);
  return std::pow(t / scale_, shape_);
}

double WeibullFaultCurve::SampleFailureAge(double current_age, double unit_uniform) const {
  const double target = CumulativeHazard(current_age) - std::log1p(-unit_uniform);
  return scale_ * std::pow(target, 1.0 / shape_);
}

std::string WeibullFaultCurve::Describe() const {
  std::ostringstream os;
  os << "weibull(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

std::unique_ptr<FaultCurve> WeibullFaultCurve::Clone() const {
  return std::make_unique<WeibullFaultCurve>(*this);
}

// ---------------------------------------------------------------------------
// GompertzFaultCurve

Status GompertzFaultCurve::Validate(double base_rate, double aging_rate) {
  if (!(base_rate >= 0.0) || !std::isfinite(base_rate) || !std::isfinite(aging_rate)) {
    return InvalidArgumentError(
        "gompertz curve requires a finite base_rate >= 0 and a finite aging_rate");
  }
  return Status::Ok();
}

GompertzFaultCurve::GompertzFaultCurve(double base_rate, double aging_rate)
    : base_rate_(base_rate), aging_rate_(aging_rate) {
  const Status valid = Validate(base_rate, aging_rate);
  CHECK(valid.ok()) << valid.ToString();
}

double GompertzFaultCurve::HazardRate(double t) const {
  CHECK_GE(t, 0.0);
  return base_rate_ * std::exp(aging_rate_ * t);
}

double GompertzFaultCurve::CumulativeHazard(double t) const {
  CHECK_GE(t, 0.0);
  if (aging_rate_ == 0.0) {
    return base_rate_ * t;
  }
  // Integral of b*e^{a s} over [0, t] = b/a * (e^{a t} - 1).
  return base_rate_ / aging_rate_ * std::expm1(aging_rate_ * t);
}

std::string GompertzFaultCurve::Describe() const {
  std::ostringstream os;
  os << "gompertz(base=" << base_rate_ << ", aging=" << aging_rate_ << ")";
  return os.str();
}

std::unique_ptr<FaultCurve> GompertzFaultCurve::Clone() const {
  return std::make_unique<GompertzFaultCurve>(*this);
}

// ---------------------------------------------------------------------------
// CompositeFaultCurve

CompositeFaultCurve::CompositeFaultCurve(std::vector<std::unique_ptr<FaultCurve>> components)
    : components_(std::move(components)) {
  CHECK(!components_.empty()) << "composite curve needs at least one component";
  for (const auto& component : components_) {
    CHECK(component != nullptr);
  }
}

CompositeFaultCurve::CompositeFaultCurve(const CompositeFaultCurve& other) {
  components_.reserve(other.components_.size());
  for (const auto& component : other.components_) {
    components_.push_back(component->Clone());
  }
}

double CompositeFaultCurve::HazardRate(double t) const {
  double sum = 0.0;
  for (const auto& component : components_) {
    sum += component->HazardRate(t);
  }
  return sum;
}

double CompositeFaultCurve::CumulativeHazard(double t) const {
  double sum = 0.0;
  for (const auto& component : components_) {
    sum += component->CumulativeHazard(t);
  }
  return sum;
}

std::string CompositeFaultCurve::Describe() const {
  std::ostringstream os;
  os << "composite(";
  for (size_t i = 0; i < components_.size(); ++i) {
    os << (i == 0 ? "" : " + ") << components_[i]->Describe();
  }
  os << ")";
  return os.str();
}

std::unique_ptr<FaultCurve> CompositeFaultCurve::Clone() const {
  return std::make_unique<CompositeFaultCurve>(*this);
}

Status ValidateBathtubCurve(double infant_shape, double infant_scale, double useful_life_rate,
                            double wearout_shape, double wearout_scale) {
  if (!(infant_shape < 1.0) || !(wearout_shape > 1.0)) {
    return InvalidArgumentError(
        "bathtub curve requires infant_shape < 1 (infant mortality) and wearout_shape > 1 "
        "(wear-out)");
  }
  RETURN_IF_ERROR(WeibullFaultCurve::Validate(infant_shape, infant_scale));
  RETURN_IF_ERROR(ConstantFaultCurve::Validate(useful_life_rate));
  return WeibullFaultCurve::Validate(wearout_shape, wearout_scale);
}

CompositeFaultCurve MakeBathtubCurve(double infant_shape, double infant_scale,
                                     double useful_life_rate, double wearout_shape,
                                     double wearout_scale) {
  const Status valid = ValidateBathtubCurve(infant_shape, infant_scale, useful_life_rate,
                                            wearout_shape, wearout_scale);
  CHECK(valid.ok()) << valid.ToString();
  std::vector<std::unique_ptr<FaultCurve>> parts;
  parts.push_back(std::make_unique<WeibullFaultCurve>(infant_shape, infant_scale));
  parts.push_back(std::make_unique<ConstantFaultCurve>(useful_life_rate));
  parts.push_back(std::make_unique<WeibullFaultCurve>(wearout_shape, wearout_scale));
  return CompositeFaultCurve(std::move(parts));
}

// ---------------------------------------------------------------------------
// PiecewiseLinearFaultCurve

PiecewiseLinearFaultCurve::PiecewiseLinearFaultCurve(std::vector<Knot> knots)
    : knots_(std::move(knots)) {
  CHECK(!knots_.empty());
  CHECK_GE(knots_.front().time, 0.0);
  for (size_t i = 0; i < knots_.size(); ++i) {
    CHECK_GE(knots_[i].hazard, 0.0);
    if (i > 0) {
      CHECK_GT(knots_[i].time, knots_[i - 1].time) << "knot times must strictly increase";
    }
  }
  // Precompute H at each knot (trapezoids); the hazard before the first knot is held at the
  // first knot's value.
  cumulative_at_knot_.resize(knots_.size());
  cumulative_at_knot_[0] = knots_[0].hazard * knots_[0].time;
  for (size_t i = 1; i < knots_.size(); ++i) {
    const double dt = knots_[i].time - knots_[i - 1].time;
    cumulative_at_knot_[i] =
        cumulative_at_knot_[i - 1] + 0.5 * (knots_[i].hazard + knots_[i - 1].hazard) * dt;
  }
}

double PiecewiseLinearFaultCurve::HazardRate(double t) const {
  CHECK_GE(t, 0.0);
  if (t <= knots_.front().time) {
    return knots_.front().hazard;
  }
  if (t >= knots_.back().time) {
    return knots_.back().hazard;
  }
  const auto it = std::lower_bound(
      knots_.begin(), knots_.end(), t,
      [](const Knot& knot, double time) { return knot.time < time; });
  const size_t hi = static_cast<size_t>(it - knots_.begin());
  const Knot& a = knots_[hi - 1];
  const Knot& b = knots_[hi];
  const double alpha = (t - a.time) / (b.time - a.time);
  return a.hazard + alpha * (b.hazard - a.hazard);
}

double PiecewiseLinearFaultCurve::CumulativeHazard(double t) const {
  CHECK_GE(t, 0.0);
  if (t <= knots_.front().time) {
    return knots_.front().hazard * t;
  }
  if (t >= knots_.back().time) {
    return cumulative_at_knot_.back() + knots_.back().hazard * (t - knots_.back().time);
  }
  const auto it = std::lower_bound(
      knots_.begin(), knots_.end(), t,
      [](const Knot& knot, double time) { return knot.time < time; });
  const size_t hi = static_cast<size_t>(it - knots_.begin());
  const Knot& a = knots_[hi - 1];
  const double h_t = HazardRate(t);
  return cumulative_at_knot_[hi - 1] + 0.5 * (a.hazard + h_t) * (t - a.time);
}

std::string PiecewiseLinearFaultCurve::Describe() const {
  std::ostringstream os;
  os << "piecewise_linear(" << knots_.size() << " knots)";
  return os.str();
}

std::unique_ptr<FaultCurve> PiecewiseLinearFaultCurve::Clone() const {
  return std::make_unique<PiecewiseLinearFaultCurve>(*this);
}

// ---------------------------------------------------------------------------
// TraceFaultCurve

TraceFaultCurve::TraceFaultCurve(std::vector<Point> points) : points_(std::move(points)) {
  CHECK_GE(points_.size(), 2u) << "trace curve needs at least two points";
  CHECK_GE(points_.front().age, 0.0);
  CHECK_GE(points_.front().cumulative_hazard, 0.0);
  for (size_t i = 1; i < points_.size(); ++i) {
    CHECK_GT(points_[i].age, points_[i - 1].age);
    CHECK_GE(points_[i].cumulative_hazard, points_[i - 1].cumulative_hazard)
        << "cumulative hazard must be nondecreasing";
  }
}

double TraceFaultCurve::HazardRate(double t) const {
  CHECK_GE(t, 0.0);
  // Slope of the interpolated cumulative hazard.
  if (t >= points_.back().age) {
    const auto& a = points_[points_.size() - 2];
    const auto& b = points_.back();
    return (b.cumulative_hazard - a.cumulative_hazard) / (b.age - a.age);
  }
  size_t hi = 1;
  while (points_[hi].age < t) {
    ++hi;
  }
  const auto& a = points_[hi - 1];
  const auto& b = points_[hi];
  return (b.cumulative_hazard - a.cumulative_hazard) / (b.age - a.age);
}

double TraceFaultCurve::CumulativeHazard(double t) const {
  CHECK_GE(t, 0.0);
  if (t <= points_.front().age) {
    // Linear ramp from the origin to the first observation.
    if (points_.front().age == 0.0) {
      return points_.front().cumulative_hazard;
    }
    return points_.front().cumulative_hazard * (t / points_.front().age);
  }
  if (t >= points_.back().age) {
    return points_.back().cumulative_hazard + HazardRate(t) * (t - points_.back().age);
  }
  size_t hi = 1;
  while (points_[hi].age < t) {
    ++hi;
  }
  const auto& a = points_[hi - 1];
  const auto& b = points_[hi];
  const double alpha = (t - a.age) / (b.age - a.age);
  return a.cumulative_hazard + alpha * (b.cumulative_hazard - a.cumulative_hazard);
}

std::string TraceFaultCurve::Describe() const {
  std::ostringstream os;
  os << "trace(" << points_.size() << " points)";
  return os.str();
}

std::unique_ptr<FaultCurve> TraceFaultCurve::Clone() const {
  return std::make_unique<TraceFaultCurve>(*this);
}

}  // namespace probcon
