#include "src/faultmodel/fault_curve.h"

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

namespace probcon {
namespace {

TEST(ConstantFaultCurveTest, ClosedForms) {
  const ConstantFaultCurve curve(0.01);
  EXPECT_DOUBLE_EQ(curve.HazardRate(0.0), 0.01);
  EXPECT_DOUBLE_EQ(curve.HazardRate(1000.0), 0.01);
  EXPECT_DOUBLE_EQ(curve.CumulativeHazard(100.0), 1.0);
  EXPECT_NEAR(curve.Survival(100.0), std::exp(-1.0), 1e-12);
}

TEST(ConstantFaultCurveTest, FromWindowProbabilityRoundTrips) {
  const auto curve = ConstantFaultCurve::FromWindowProbability(0.08, 24.0);
  EXPECT_NEAR(curve.FailureProbability(0.0, 24.0), 0.08, 1e-12);
  // Memoryless: same probability from any starting age.
  EXPECT_NEAR(curve.FailureProbability(1000.0, 1024.0), 0.08, 1e-12);
}

TEST(ConstantFaultCurveTest, SampleFailureAgeIsExponential) {
  const ConstantFaultCurve curve(0.5);
  // Inverse CDF at u: t = -ln(1-u)/rate.
  EXPECT_NEAR(curve.SampleFailureAge(0.0, 0.5), std::log(2.0) / 0.5, 1e-9);
  EXPECT_NEAR(curve.SampleFailureAge(10.0, 0.5), 10.0 + std::log(2.0) / 0.5, 1e-9);
}

TEST(ConstantFaultCurveTest, ZeroRateNeverFails) {
  const ConstantFaultCurve curve(0.0);
  EXPECT_DOUBLE_EQ(curve.FailureProbability(0.0, 1e9), 0.0);
  EXPECT_TRUE(std::isinf(curve.SampleFailureAge(0.0, 0.99)));
}

TEST(WeibullFaultCurveTest, ClosedForms) {
  const WeibullFaultCurve curve(2.0, 10.0);
  // H(t) = (t/10)^2.
  EXPECT_DOUBLE_EQ(curve.CumulativeHazard(10.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.CumulativeHazard(20.0), 4.0);
  // h(t) = (2/10)(t/10).
  EXPECT_NEAR(curve.HazardRate(10.0), 0.2, 1e-12);
  EXPECT_NEAR(curve.HazardRate(5.0), 0.1, 1e-12);
}

TEST(WeibullFaultCurveTest, ShapeOneIsExponential) {
  const WeibullFaultCurve weibull(1.0, 100.0);
  const ConstantFaultCurve exponential(0.01);
  for (double t = 0.0; t <= 500.0; t += 50.0) {
    EXPECT_NEAR(weibull.CumulativeHazard(t), exponential.CumulativeHazard(t), 1e-9) << t;
  }
}

TEST(WeibullFaultCurveTest, InfantMortalityHazardDecreases) {
  const WeibullFaultCurve curve(0.5, 1000.0);
  EXPECT_GT(curve.HazardRate(1.0), curve.HazardRate(100.0));
  EXPECT_GT(curve.HazardRate(100.0), curve.HazardRate(10000.0));
}

TEST(WeibullFaultCurveTest, WearOutHazardIncreases) {
  const WeibullFaultCurve curve(3.0, 1000.0);
  EXPECT_LT(curve.HazardRate(1.0), curve.HazardRate(100.0));
  EXPECT_LT(curve.HazardRate(100.0), curve.HazardRate(10000.0));
}

TEST(WeibullFaultCurveTest, SampleFailureAgeInvertsCdf) {
  const WeibullFaultCurve curve(1.5, 50.0);
  for (const double u : {0.1, 0.5, 0.9}) {
    const double age = curve.SampleFailureAge(0.0, u);
    // P(fail by age) should equal u.
    EXPECT_NEAR(curve.FailureProbability(0.0, age), u, 1e-9) << "u=" << u;
  }
}

TEST(WeibullFaultCurveTest, ConditionalSamplingRespectsCurrentAge) {
  const WeibullFaultCurve curve(2.0, 100.0);
  const double age = curve.SampleFailureAge(80.0, 0.5);
  EXPECT_GT(age, 80.0);
  // P(fail in (80, age] | alive at 80) = 0.5.
  EXPECT_NEAR(curve.FailureProbability(80.0, age), 0.5, 1e-9);
}

TEST(GompertzFaultCurveTest, ZeroAgingIsConstant) {
  const GompertzFaultCurve gompertz(0.01, 0.0);
  const ConstantFaultCurve constant(0.01);
  for (double t = 0.0; t <= 100.0; t += 25.0) {
    EXPECT_DOUBLE_EQ(gompertz.HazardRate(t), constant.HazardRate(t));
    EXPECT_DOUBLE_EQ(gompertz.CumulativeHazard(t), constant.CumulativeHazard(t));
  }
}

TEST(GompertzFaultCurveTest, ClosedFormCumulativeHazard) {
  const GompertzFaultCurve curve(0.001, 0.01);
  // H(t) = b/a (e^{at} - 1).
  EXPECT_NEAR(curve.CumulativeHazard(100.0), 0.1 * (std::exp(1.0) - 1.0), 1e-12);
  // And it matches the numeric integral of the hazard (base-class path via a wrapper).
  class Opaque final : public FaultCurve {
   public:
    double HazardRate(double t) const override { return inner_.HazardRate(t); }
    std::string Describe() const override { return "opaque"; }
    std::unique_ptr<FaultCurve> Clone() const override {
      return std::make_unique<Opaque>(*this);
    }

   private:
    GompertzFaultCurve inner_{0.001, 0.01};
  };
  EXPECT_NEAR(Opaque().CumulativeHazard(100.0), curve.CumulativeHazard(100.0), 1e-9);
}

TEST(GompertzFaultCurveTest, AgingCompoundsRisk) {
  // Same window at later ages must be riskier (the SDC aging effect).
  const GompertzFaultCurve curve(1e-6, 1e-4);
  const double young = curve.FailureProbability(0.0, 1000.0);
  const double old = curve.FailureProbability(50000.0, 51000.0);
  EXPECT_GT(old, young * 50.0);
}

TEST(GompertzFaultCurveTest, NegativeAgingModelsBurnIn) {
  const GompertzFaultCurve curve(0.01, -0.001);
  EXPECT_GT(curve.HazardRate(0.0), curve.HazardRate(5000.0));
  // Total hazard saturates at b/|a|.
  EXPECT_LT(curve.CumulativeHazard(1e7), 0.01 / 0.001 + 1e-9);
}

TEST(CompositeFaultCurveTest, HazardsAdd) {
  std::vector<std::unique_ptr<FaultCurve>> parts;
  parts.push_back(std::make_unique<ConstantFaultCurve>(0.01));
  parts.push_back(std::make_unique<ConstantFaultCurve>(0.02));
  const CompositeFaultCurve composite(std::move(parts));
  EXPECT_NEAR(composite.HazardRate(5.0), 0.03, 1e-12);
  EXPECT_NEAR(composite.CumulativeHazard(10.0), 0.3, 1e-12);
}

TEST(CompositeFaultCurveTest, CloneIsDeep) {
  std::vector<std::unique_ptr<FaultCurve>> parts;
  parts.push_back(std::make_unique<WeibullFaultCurve>(2.0, 10.0));
  const CompositeFaultCurve composite(std::move(parts));
  const auto clone = composite.Clone();
  EXPECT_DOUBLE_EQ(clone->CumulativeHazard(10.0), composite.CumulativeHazard(10.0));
}

TEST(BathtubCurveTest, HasBathtubShape) {
  const auto bathtub = MakeBathtubCurve(/*infant_shape=*/0.5, /*infant_scale=*/1e5,
                                        /*useful_life_rate=*/1e-6,
                                        /*wearout_shape=*/4.0, /*wearout_scale=*/6e4);
  const double early = bathtub.HazardRate(100.0);
  const double middle = bathtub.HazardRate(20000.0);
  const double late = bathtub.HazardRate(80000.0);
  EXPECT_GT(early, middle);  // Infant mortality dominates early.
  EXPECT_GT(late, middle);   // Wear-out dominates late.
}

// The preconditions the constructors CHECK, as Status: what the serving edge calls first.
TEST(CurvePreconditionTest, ValidateAcceptsWhatTheConstructorsBuildAndNothingElse) {
  EXPECT_TRUE(ConstantFaultCurve::Validate(0.0).ok());
  EXPECT_FALSE(ConstantFaultCurve::Validate(-1e-9).ok());
  EXPECT_FALSE(ConstantFaultCurve::Validate(std::numeric_limits<double>::infinity()).ok());
  EXPECT_TRUE(ConstantFaultCurve::ValidateWindowProbability(0.0, 24.0).ok());
  EXPECT_FALSE(ConstantFaultCurve::ValidateWindowProbability(1.0, 24.0).ok());
  EXPECT_FALSE(ConstantFaultCurve::ValidateWindowProbability(0.5, 0.0).ok());
  EXPECT_TRUE(WeibullFaultCurve::Validate(0.7, 1000.0).ok());
  EXPECT_FALSE(WeibullFaultCurve::Validate(0.0, 1000.0).ok());
  EXPECT_FALSE(WeibullFaultCurve::Validate(0.7, 0.0).ok());
  EXPECT_TRUE(GompertzFaultCurve::Validate(1e-5, -0.1).ok());
  EXPECT_FALSE(GompertzFaultCurve::Validate(-1e-5, 0.1).ok());
  EXPECT_TRUE(ValidateBathtubCurve(0.5, 100.0, 0.001, 3.0, 1000.0).ok());
  EXPECT_FALSE(ValidateBathtubCurve(2.0, 100.0, 0.001, 3.0, 1000.0).ok());
  EXPECT_FALSE(ValidateBathtubCurve(0.5, 100.0, 0.001, 0.9, 1000.0).ok());
  EXPECT_FALSE(ValidateBathtubCurve(0.5, 100.0, -0.001, 3.0, 1000.0).ok());
}

// Both cumulative hazards overflow to infinity: the window probability is undefined, not 0.
TEST(FaultCurveTest, OverflowingCumulativeHazardIsNotANeverFailingNode) {
  const WeibullFaultCurve curve(1.0, 1e-300);
  EXPECT_TRUE(std::isnan(curve.FailureProbability(1e10, 1e10 + 1.0)));
  // Only the end of the window overflows: the node fails for certain.
  EXPECT_EQ(curve.FailureProbability(0.0, 1.0), 1.0);
}

TEST(PiecewiseLinearTest, InterpolatesHazard) {
  const PiecewiseLinearFaultCurve curve({{0.0, 0.0}, {10.0, 1.0}, {20.0, 1.0}});
  EXPECT_NEAR(curve.HazardRate(5.0), 0.5, 1e-12);
  EXPECT_NEAR(curve.HazardRate(15.0), 1.0, 1e-12);
  EXPECT_NEAR(curve.HazardRate(100.0), 1.0, 1e-12);  // Held constant after last knot.
}

TEST(PiecewiseLinearTest, CumulativeHazardIsTrapezoidIntegral) {
  const PiecewiseLinearFaultCurve curve({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_NEAR(curve.CumulativeHazard(10.0), 5.0, 1e-12);   // Triangle.
  EXPECT_NEAR(curve.CumulativeHazard(5.0), 1.25, 1e-12);   // Smaller triangle.
  EXPECT_NEAR(curve.CumulativeHazard(20.0), 15.0, 1e-12);  // Triangle + rectangle.
}

TEST(PiecewiseLinearTest, RolloutSpikeIncreasesWindowRisk) {
  // Baseline 1e-5 hazard with a spike to 1e-2 around the rollout hour.
  const PiecewiseLinearFaultCurve spiked(
      {{0.0, 1e-5}, {99.0, 1e-5}, {100.0, 1e-2}, {101.0, 1e-2}, {102.0, 1e-5}});
  const double quiet = spiked.FailureProbability(0.0, 50.0);
  const double rollout = spiked.FailureProbability(75.0, 125.0);
  EXPECT_GT(rollout, quiet * 10.0);
}

TEST(TraceFaultCurveTest, InterpolatesCumulativeHazard) {
  const TraceFaultCurve curve({{0.0, 0.0}, {10.0, 0.5}, {30.0, 0.6}});
  EXPECT_NEAR(curve.CumulativeHazard(5.0), 0.25, 1e-12);
  EXPECT_NEAR(curve.CumulativeHazard(20.0), 0.55, 1e-12);
  EXPECT_NEAR(curve.HazardRate(5.0), 0.05, 1e-12);
  EXPECT_NEAR(curve.HazardRate(20.0), 0.005, 1e-12);
}

TEST(TraceFaultCurveTest, ExtrapolatesWithLastSlope) {
  const TraceFaultCurve curve({{0.0, 0.0}, {10.0, 0.5}, {30.0, 0.6}});
  EXPECT_NEAR(curve.CumulativeHazard(50.0), 0.6 + 20.0 * 0.005, 1e-12);
}

TEST(FaultCurveTest, NumericCumulativeHazardMatchesClosedForm) {
  // Wrap a Weibull so the base-class adaptive Simpson path is exercised.
  class OpaqueWeibull final : public FaultCurve {
   public:
    double HazardRate(double t) const override { return inner_.HazardRate(t); }
    std::string Describe() const override { return "opaque"; }
    std::unique_ptr<FaultCurve> Clone() const override {
      return std::make_unique<OpaqueWeibull>(*this);
    }

   private:
    WeibullFaultCurve inner_{2.0, 10.0};
  };
  const OpaqueWeibull opaque;
  const WeibullFaultCurve direct(2.0, 10.0);
  for (double t = 1.0; t <= 40.0; t += 7.0) {
    EXPECT_NEAR(opaque.CumulativeHazard(t), direct.CumulativeHazard(t),
                direct.CumulativeHazard(t) * 1e-8)
        << t;
  }
}

TEST(FaultCurveTest, GenericSampleFailureAgeInvertsBisection) {
  class OpaqueConstant final : public FaultCurve {
   public:
    double HazardRate(double) const override { return 0.1; }
    double CumulativeHazard(double t) const override { return 0.1 * t; }
    std::string Describe() const override { return "opaque-const"; }
    std::unique_ptr<FaultCurve> Clone() const override {
      return std::make_unique<OpaqueConstant>(*this);
    }
  };
  const OpaqueConstant curve;
  // Generic bisection should agree with the exponential inverse CDF.
  EXPECT_NEAR(curve.SampleFailureAge(0.0, 0.5), std::log(2.0) / 0.1, 1e-6);
}

TEST(FaultCurveTest, FailureProbabilityMonotoneInWindow) {
  const WeibullFaultCurve curve(0.7, 1000.0);
  double previous = 0.0;
  for (double w = 10.0; w <= 1000.0; w *= 2.0) {
    const double p = curve.FailureProbability(100.0, 100.0 + w);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

}  // namespace
}  // namespace probcon
