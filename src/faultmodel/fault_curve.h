// Fault curves: per-node, time-dependent failure models (paper §2).
//
// A fault curve captures "the unique, time-dependent fault profile of a given server". We
// model it as a hazard function h(t) — the instantaneous failure rate at age t — from which
// everything the analysis needs follows:
//
//   cumulative hazard    H(t)  = ∫_0^t h(s) ds
//   survival             S(t)  = exp(-H(t))
//   window failure prob  P(fail in [t0,t1] | alive at t0) = 1 - exp(-(H(t1) - H(t0)))
//
// The library ships the shapes the fault literature reports: constant rate (memoryless),
// Weibull (infant mortality for shape < 1, wear-out for shape > 1), the classic bathtub curve
// (a competing-risks sum of the above), piecewise-linear hazards for rollout/workload spikes,
// and trace-driven empirical curves. Curves are value-cloneable and cheap.

#ifndef PROBCON_SRC_FAULTMODEL_FAULT_CURVE_H_
#define PROBCON_SRC_FAULTMODEL_FAULT_CURVE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace probcon {

class FaultCurve {
 public:
  virtual ~FaultCurve() = default;

  // Instantaneous hazard rate at age `t` (failures per unit time, t >= 0).
  virtual double HazardRate(double t) const = 0;

  // Cumulative hazard H(t). The base class integrates HazardRate numerically (adaptive
  // Simpson); subclasses with closed forms override.
  virtual double CumulativeHazard(double t) const;

  // Survival probability to age t.
  double Survival(double t) const;

  // Probability of failing during [t0, t1], conditioned on being alive at t0. NaN when
  // both cumulative hazards overflow, so callers reject it rather than read "never fails".
  double FailureProbability(double t0, double t1) const;

  // Samples a failure age for a device alive at `current_age` (inverse-CDF via bisection on
  // the cumulative hazard; subclasses may override with closed forms).
  virtual double SampleFailureAge(double current_age, double unit_uniform) const;

  virtual std::string Describe() const = 0;
  virtual std::unique_ptr<FaultCurve> Clone() const = 0;
};

// Each curve states its preconditions once, as a static Validate whose Status the
// constructor CHECKs; edge callers (the serving daemon) call it first and surface the
// Status, so no limit is written twice.

// Memoryless constant-rate curve; the model behind every number in the paper's §3 analysis.
class ConstantFaultCurve final : public FaultCurve {
 public:
  // A finite rate >= 0.
  static Status Validate(double rate);
  explicit ConstantFaultCurve(double rate);

  // 0 <= p < 1 and a positive finite window.
  static Status ValidateWindowProbability(double p, double window);
  // Curve whose probability of failure within `window` equals `p` (e.g. "1% per analysis
  // window", the paper's p_u).
  static ConstantFaultCurve FromWindowProbability(double p, double window);

  double rate() const { return rate_; }

  double HazardRate(double /*t*/) const override { return rate_; }
  double CumulativeHazard(double t) const override { return rate_ * t; }
  double SampleFailureAge(double current_age, double unit_uniform) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

 private:
  double rate_;
};

// Weibull hazard: h(t) = (shape/scale) * (t/scale)^(shape-1).
// shape < 1: infant mortality; shape == 1: constant; shape > 1: wear-out.
class WeibullFaultCurve final : public FaultCurve {
 public:
  // Finite shape > 0 and scale > 0.
  static Status Validate(double shape, double scale);
  WeibullFaultCurve(double shape, double scale);

  double shape() const { return shape_; }
  double scale() const { return scale_; }

  double HazardRate(double t) const override;
  double CumulativeHazard(double t) const override;
  double SampleFailureAge(double current_age, double unit_uniform) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

 private:
  double shape_;
  double scale_;
};

// Gompertz hazard: h(t) = base_rate * exp(aging_rate * t). The empirical shape behind
// "silent corruption errors become more frequent as cores age" (paper §2, citing the
// Google/Meta SDC studies): risk compounds exponentially with age. aging_rate == 0
// degenerates to a constant curve; negative rates model burn-in improvement.
class GompertzFaultCurve final : public FaultCurve {
 public:
  // A finite base_rate >= 0 and a finite aging_rate.
  static Status Validate(double base_rate, double aging_rate);
  GompertzFaultCurve(double base_rate, double aging_rate);

  double base_rate() const { return base_rate_; }
  double aging_rate() const { return aging_rate_; }

  double HazardRate(double t) const override;
  double CumulativeHazard(double t) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

 private:
  double base_rate_;
  double aging_rate_;
};

// Competing risks: the device fails when ANY component risk fires, so hazards add. The classic
// disk bathtub is BathtubFaultCurve() = infant Weibull + constant useful-life + wear-out
// Weibull.
class CompositeFaultCurve final : public FaultCurve {
 public:
  explicit CompositeFaultCurve(std::vector<std::unique_ptr<FaultCurve>> components);
  CompositeFaultCurve(const CompositeFaultCurve& other);

  double HazardRate(double t) const override;
  double CumulativeHazard(double t) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

  size_t component_count() const { return components_.size(); }

 private:
  std::vector<std::unique_ptr<FaultCurve>> components_;
};

// The bathtub's preconditions: an infant-mortality Weibull (infant_shape < 1), a valid
// constant useful-life rate, and a wear-out Weibull (wearout_shape > 1).
Status ValidateBathtubCurve(double infant_shape, double infant_scale, double useful_life_rate,
                            double wearout_shape, double wearout_scale);

// Convenience constructor for the disk-style bathtub shape.
CompositeFaultCurve MakeBathtubCurve(double infant_shape, double infant_scale,
                                     double useful_life_rate, double wearout_shape,
                                     double wearout_scale);

// Piecewise-linear hazard, for operational events whose risk profile is known in advance
// (software rollouts, peak-hours load, planned maintenance). Knots must be strictly
// increasing in time; the hazard is linearly interpolated and held constant after the last
// knot.
class PiecewiseLinearFaultCurve final : public FaultCurve {
 public:
  struct Knot {
    double time;
    double hazard;
  };

  explicit PiecewiseLinearFaultCurve(std::vector<Knot> knots);

  double HazardRate(double t) const override;
  double CumulativeHazard(double t) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

 private:
  std::vector<Knot> knots_;
  std::vector<double> cumulative_at_knot_;  // H(knots_[i].time), precomputed.
};

// Empirical curve from a Nelson-Aalen-style cumulative hazard estimate: a step function of
// (age, cumulative_hazard) points produced by estimators in estimator.h. Hazard between points
// is the local slope.
class TraceFaultCurve final : public FaultCurve {
 public:
  struct Point {
    double age;
    double cumulative_hazard;
  };

  explicit TraceFaultCurve(std::vector<Point> points);

  double HazardRate(double t) const override;
  double CumulativeHazard(double t) const override;
  std::string Describe() const override;
  std::unique_ptr<FaultCurve> Clone() const override;

 private:
  std::vector<Point> points_;
};

}  // namespace probcon

#endif  // PROBCON_SRC_FAULTMODEL_FAULT_CURVE_H_
