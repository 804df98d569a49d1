#include "src/faultmodel/joint_model.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace probcon {
namespace {

// Exact configuration probabilities must sum to 1 over all 2^n configurations.
void ExpectConfigurationsSumToOne(const JointFailureModel& model) {
  ASSERT_LE(model.n(), 16);
  double sum = 0.0;
  for (FailureConfiguration config = 0; config < (FailureConfiguration{1} << model.n());
       ++config) {
    const auto prob = model.ConfigurationProbability(config);
    ASSERT_TRUE(prob.has_value());
    EXPECT_GE(*prob, 0.0);
    sum += *prob;
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

// Sampling frequencies should match marginals.
void ExpectSamplingMatchesMarginals(const JointFailureModel& model, uint64_t seed) {
  Rng rng(seed);
  constexpr int kTrials = 200000;
  std::vector<int> failures(model.n(), 0);
  for (int t = 0; t < kTrials; ++t) {
    const FailureConfiguration config = model.Sample(rng);
    for (int i = 0; i < model.n(); ++i) {
      if (NodeFailed(config, i)) {
        ++failures[i];
      }
    }
  }
  for (int i = 0; i < model.n(); ++i) {
    EXPECT_NEAR(static_cast<double>(failures[i]) / kTrials,
                model.MarginalFailureProbability(i), 0.01)
        << "node " << i;
  }
}

TEST(IndependentModelTest, ConfigurationProbabilityIsProduct) {
  const IndependentFailureModel model({0.1, 0.2, 0.3});
  EXPECT_NEAR(*model.ConfigurationProbability(0b000), 0.9 * 0.8 * 0.7, 1e-15);
  EXPECT_NEAR(*model.ConfigurationProbability(0b101), 0.1 * 0.8 * 0.3, 1e-15);
  EXPECT_NEAR(*model.ConfigurationProbability(0b111), 0.1 * 0.2 * 0.3, 1e-15);
}

TEST(IndependentModelTest, ConfigurationsSumToOne) {
  ExpectConfigurationsSumToOne(IndependentFailureModel({0.1, 0.2, 0.3, 0.9, 0.05}));
}

TEST(IndependentModelTest, SamplingMatchesMarginals) {
  ExpectSamplingMatchesMarginals(IndependentFailureModel({0.05, 0.3, 0.8}), 101);
}

TEST(IndependentModelTest, UniformFactory) {
  const auto model = IndependentFailureModel::Uniform(7, 0.04);
  EXPECT_EQ(model.n(), 7);
  for (int i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(model.MarginalFailureProbability(i), 0.04);
  }
}

TEST(IndependentModelTest, ValidateAcceptsTheLimitsAndRejectsOnePast) {
  EXPECT_TRUE(IndependentFailureModel::Validate({0.5}).ok());
  EXPECT_TRUE(IndependentFailureModel::Validate(std::vector<double>(64, 0.5)).ok());
  EXPECT_TRUE(IndependentFailureModel::Validate({0.0, 1.0}).ok());

  EXPECT_FALSE(IndependentFailureModel::Validate({}).ok());
  EXPECT_FALSE(IndependentFailureModel::Validate(std::vector<double>(65, 0.5)).ok());
  EXPECT_FALSE(
      IndependentFailureModel::Validate({std::numeric_limits<double>::quiet_NaN()}).ok());
  EXPECT_FALSE(IndependentFailureModel::Validate({-1e-300}).ok());
  EXPECT_FALSE(IndependentFailureModel::Validate({1.0 + 0x1p-52}).ok());
}

TEST(CommonCauseModelTest, ConfigurationsSumToOne) {
  ExpectConfigurationsSumToOne(
      CommonCauseFailureModel({0.01, 0.02, 0.03, 0.04}, 0.1, {0.5, 0.5, 0.9, 0.2}));
}

TEST(CommonCauseModelTest, MarginalFormula) {
  const CommonCauseFailureModel model({0.1}, 0.2, {0.5});
  // P = 0.8 * 0.1 + 0.2 * (0.1 + 0.9 * 0.5) = 0.08 + 0.11 = 0.19.
  EXPECT_NEAR(model.MarginalFailureProbability(0), 0.19, 1e-12);
}

TEST(CommonCauseModelTest, SamplingMatchesMarginals) {
  ExpectSamplingMatchesMarginals(
      CommonCauseFailureModel({0.02, 0.05, 0.1}, 0.15, {0.6, 0.6, 0.6}), 202);
}

TEST(CommonCauseModelTest, ShockInducesPositiveCorrelation) {
  // With a strong shock, joint failure of both nodes exceeds the independent product.
  const CommonCauseFailureModel model({0.01, 0.01}, 0.1, {0.9, 0.9});
  const double joint = *model.ConfigurationProbability(0b11);
  const double m0 = model.MarginalFailureProbability(0);
  const double m1 = model.MarginalFailureProbability(1);
  EXPECT_GT(joint, m0 * m1 * 2.0);
}

TEST(CommonCauseModelTest, ZeroShockReducesToIndependent) {
  const CommonCauseFailureModel with_shock({0.1, 0.3}, 0.0, {0.9, 0.9});
  const IndependentFailureModel independent({0.1, 0.3});
  for (FailureConfiguration config = 0; config < 4; ++config) {
    EXPECT_NEAR(*with_shock.ConfigurationProbability(config),
                *independent.ConfigurationProbability(config), 1e-14);
  }
}

TEST(FailureDomainModelTest, ConfigurationsSumToOne) {
  ExpectConfigurationsSumToOne(
      FailureDomainModel({0.01, 0.02, 0.03, 0.04}, {0, 0, 1, 1}, {0.05, 0.1}));
}

TEST(FailureDomainModelTest, MarginalCombinesBaseAndDomain) {
  const FailureDomainModel model({0.1, 0.2}, {0, 1}, {0.3, 0.0});
  EXPECT_NEAR(model.MarginalFailureProbability(0), 1.0 - 0.9 * 0.7, 1e-12);
  EXPECT_NEAR(model.MarginalFailureProbability(1), 0.2, 1e-12);
}

TEST(FailureDomainModelTest, DomainEventKillsWholeRack) {
  // Base probability zero; only the domain can fail, and it takes both members with it.
  const FailureDomainModel model({0.0, 0.0, 0.0}, {0, 0, 1}, {0.25, 0.0});
  EXPECT_NEAR(*model.ConfigurationProbability(0b011), 0.25, 1e-12);
  EXPECT_NEAR(*model.ConfigurationProbability(0b001), 0.0, 1e-12);  // Half a rack: impossible.
  EXPECT_NEAR(*model.ConfigurationProbability(0b000), 0.75, 1e-12);
}

TEST(FailureDomainModelTest, SamplingMatchesMarginals) {
  ExpectSamplingMatchesMarginals(
      FailureDomainModel({0.02, 0.02, 0.05, 0.05}, {0, 0, 1, 1}, {0.1, 0.05}), 303);
}

TEST(BetaBinomialModelTest, ConfigurationsSumToOne) {
  ExpectConfigurationsSumToOne(BetaBinomialFailureModel(6, 2.0, 18.0));
}

TEST(BetaBinomialModelTest, MarginalIsAlphaOverSum) {
  const BetaBinomialFailureModel model(5, 1.0, 9.0);
  EXPECT_NEAR(model.MarginalFailureProbability(0), 0.1, 1e-12);
}

TEST(BetaBinomialModelTest, PairwiseCorrelationFormula) {
  const BetaBinomialFailureModel model(5, 2.0, 8.0);
  EXPECT_NEAR(model.PairwiseCorrelation(), 1.0 / 11.0, 1e-12);
}

TEST(BetaBinomialModelTest, PositiveCorrelationRaisesJointFailures) {
  // Same marginal (10%) but correlated: P(both fail) must exceed the independent 1%.
  const BetaBinomialFailureModel correlated(2, 0.5, 4.5);
  const double joint = *correlated.ConfigurationProbability(0b11);
  EXPECT_GT(joint, 0.011);
}

TEST(BetaBinomialModelTest, SamplingMatchesMarginals) {
  ExpectSamplingMatchesMarginals(BetaBinomialFailureModel(4, 3.0, 27.0), 404);
}

TEST(BetaBinomialModelTest, Exchangeability) {
  const BetaBinomialFailureModel model(4, 2.0, 6.0);
  // All configurations with the same failure count have equal probability.
  EXPECT_NEAR(*model.ConfigurationProbability(0b0011), *model.ConfigurationProbability(0b1100),
              1e-15);
  EXPECT_NEAR(*model.ConfigurationProbability(0b0101), *model.ConfigurationProbability(0b1010),
              1e-15);
}

TEST(BetaBinomialModelTest, ValidateAcceptsTheLimitsAndRejectsOnePast) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(BetaBinomialFailureModel::Validate(kMaxConfigurationNodes, 1.0, 50.0).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(kMaxConfigurationNodes + 1, 1.0, 50.0).ok());
  EXPECT_TRUE(BetaBinomialFailureModel::Validate(1, 1.0, 50.0).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(0, 1.0, 50.0).ok());
  // The largest finite parameter is a point mass; infinity would sample NaN levels.
  EXPECT_TRUE(BetaBinomialFailureModel::Validate(5, kMax, 50.0).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(5, kInf, 50.0).ok());
  EXPECT_TRUE(BetaBinomialFailureModel::Validate(5, 1.0, kMax).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(5, 1.0, kInf).ok());
  EXPECT_TRUE(BetaBinomialFailureModel::Validate(5, kTiny, kTiny).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(5, 0.0, 50.0).ok());
  EXPECT_FALSE(BetaBinomialFailureModel::Validate(5, 1.0, 0.0).ok());
  EXPECT_EQ(BetaBinomialFailureModel::Validate(5, std::nan(""), 50.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(SamplersTest, GammaMeanMatchesShape) {
  Rng rng(999);
  for (const double shape : {0.5, 1.0, 3.0, 10.0}) {
    double sum = 0.0;
    constexpr int kTrials = 100000;
    for (int i = 0; i < kTrials; ++i) {
      sum += SampleGamma(rng, shape);
    }
    EXPECT_NEAR(sum / kTrials, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(SamplersTest, BetaMeanMatchesMoments) {
  Rng rng(888);
  double sum = 0.0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    const double x = SampleBeta(rng, 2.0, 6.0);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kTrials, 0.25, 0.01);
}

TEST(HelpersTest, CountFailuresAndNodeFailed) {
  EXPECT_EQ(CountFailures(0b1011), 3);
  EXPECT_TRUE(NodeFailed(0b1011, 0));
  EXPECT_FALSE(NodeFailed(0b1011, 2));
  EXPECT_TRUE(NodeFailed(0b1011, 3));
}

}  // namespace
}  // namespace probcon
