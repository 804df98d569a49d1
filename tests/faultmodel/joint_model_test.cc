#include "src/faultmodel/joint_model.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/prob/kahan.h"
#include "src/prob/poisson_binomial.h"

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

TEST(IndependentModelTest, CountLawIsThePoissonBinomialPmf) {
  const std::vector<double> probabilities = {0.1, 0.2, 0.3, 0.9, 0.05};
  EXPECT_EQ(IndependentFailureModel(probabilities).CountLaw(),
            PoissonBinomial(probabilities).pmf());
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

// The first 200 samples of three seeded models, two hex digits per sample. They pin the
// draw order: every domain's event first, then a base draw for each node outside the
// domains that fired.
TEST(FailureDomainModelTest, FirstSamplesArePinned) {
  struct Pinned {
    FailureDomainModel model;
    uint64_t seed;
    std::string samples;
  };
  const std::vector<Pinned> pinned = {
      {FailureDomainModel({0.1, 0.2, 0.05, 0.3, 0.15, 0.1}, {0, 0, 1, 1, 2, 2}, {0.2, 0.1, 0.3}),
       11,
       "3e203b080e00003c3010323e0c000203103009323b30023000330000003010083c30031632023b33"
       "000303010c003008330130003c3839000110081a03233000003800330c3c002b31000a0c00030800"
       "3b0038142b300b380800000b383b30133a30300c3032281c383b33092b002a0b28043222330c030d"
       "0a3803033b30083830000000100b1a173c3008140b33303f333b33200430103b08080001003a0900"
       "08100808000238030232133f080c0b03383a3c303908180330323d39000b2c33080630302b323000"},
      // Domain 1 is empty, and domain ids are not in node order.
      {FailureDomainModel({0.05, 0.4, 0.1, 0.2, 0.3, 0.05, 0.25, 0.1}, {2, 0, 2, 3, 0, 3, 2, 0},
                          {0.25, 0.5, 0.15, 0.35}),
       22,
       "6f1a0a044728baef6992a2005442120212289855fad2d792823808fa00065300d2286d8a2c026a4d"
       "7a3a5ed2d2baba6d000292da90d250009a929a7f2420fad2106d102b1a2ae86d982eed1200ba6000"
       "44ba554782ae007a5206002881571a9204282ad77d6a022a48ba00bad7400a2cd7680a1258d72818"
       "1165926d47926aba287d38be28baba006bd2006abaff900842a8c5684800fa6f32556a509202fe68"
       "cf4a104700d72c0140ea00003e47026dffc2557f2a7d007a023ac51000ba18fa2048bafa287d0845"},
      // Probabilities of exactly 0 and 1, for nodes and for domains.
      {FailureDomainModel({0.0, 1.0, 0.3, 0.5, 0.2}, {0, 1, 1, 2, 3}, {1.0, 0.0, 0.4, 0.6}),
       33,
       "0b1b13130b031b031f030b1b1f1b1303031b171f1b131b131b1b1b1b0b13171f131b0b13171b1313"
       "0b131b0b0b170f1b1b0b070b1b1b171b03031b1b0b1f17131b131b170b031b131b1b13130b1b1f1b"
       "1b031b1b1b130b1b07131f1f1313031b031b1f07171b071b171b131f0b0b131f0b071b1f0f0b1b1b"
       "130b0b1b1b1b1b071b1f1b03071b171b131b071b131b0b1b130b1b1b0b1b071b1b13170f0b170b1b"
       "031b0b1b1f171b1b1b071b1b031b031b171b0f0b1b1b0f17031f070b0f1b13131313031f0b0b1b0b"},
  };
  for (const Pinned& pin : pinned) {
    Rng rng(pin.seed);
    std::string samples;
    for (int t = 0; t < 200; ++t) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "%02llx",
                    static_cast<unsigned long long>(pin.model.Sample(rng)));
      samples += hex;
    }
    EXPECT_EQ(samples, pin.samples) << "seed " << pin.seed;
  }
}

// The count law against the mass that 2^n enumeration puts on each failure count, over
// seeded models: n in [1, 12], 1 to 5 domains (some of them empty), p and q log-uniform in
// [1e-9, 0.3] or exactly 0 or 1. Every term on both sides is non-negative, so each entry
// must agree to 1e-12 relative, and an exact zero on one side is an exact zero on the other.
TEST(FailureDomainModelTest, CountLawMatchesEnumeration) {
  Rng rng(2718);
  const auto draw = [&rng] {
    const uint64_t kind = rng.NextBelow(10);
    if (kind == 0) return 0.0;
    if (kind == 1) return 1.0;
    return std::exp(std::log(1e-9) + rng.NextDouble() * (std::log(0.3) - std::log(1e-9)));
  };
  constexpr int kModels = 1200;
  for (int m = 0; m < kModels; ++m) {
    const int n = static_cast<int>(rng.NextInRange(1, 12));
    const int domains = static_cast<int>(rng.NextInRange(1, 5));
    // Every fourth model leaves its last domain empty even when n is large.
    const int used = (m % 4 == 0 && domains > 1) ? domains - 1 : domains;
    std::vector<double> base(static_cast<size_t>(n));
    std::vector<int> domain_of(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      base[i] = draw();
      domain_of[i] = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(used)));
    }
    std::vector<double> rack(static_cast<size_t>(domains));
    for (double& q : rack) q = draw();
    const FailureDomainModel model(base, domain_of, rack);

    std::vector<KahanSum> mass(static_cast<size_t>(n) + 1);
    for (FailureConfiguration config = 0; config < (FailureConfiguration{1} << n); ++config) {
      mass[CountFailures(config)].Add(*model.ConfigurationProbability(config));
    }
    const std::optional<std::vector<double>> law = model.CountLaw();
    ASSERT_TRUE(law.has_value());
    ASSERT_EQ(law->size(), mass.size());
    for (int k = 0; k <= n; ++k) {
      const double expected = mass[k].Total();
      ASSERT_NEAR((*law)[k], expected, 1e-12 * expected)
          << "model " << m << " (n = " << n << ", " << domains << " domains), count " << k;
    }
  }
}

TEST(FailureDomainModelTest, MoreDomainsThanConfigurationBitsStayExact) {
  // 70 domains, all but three empty: configuration probabilities stay exact (the event-sum
  // formula gave up past 20 domains) and sampling never shifts a word by a domain index.
  const FailureDomainModel model({0.01, 0.02, 0.03}, {0, 40, 69}, std::vector<double>(70, 0.1));
  ExpectConfigurationsSumToOne(model);
  EXPECT_NEAR(*model.ConfigurationProbability(0b000), std::pow(0.9, 3) * 0.99 * 0.98 * 0.97,
              1e-15);
  EXPECT_NEAR(*model.ConfigurationProbability(0b101), 0.109 * 0.9 * 0.98 * 0.127, 1e-15);
  ExpectSamplingMatchesMarginals(model, 505);
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
