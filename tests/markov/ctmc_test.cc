#include "src/markov/ctmc.h"

#include <atomic>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"

namespace probcon {
namespace {

// Two-state repairable machine: up (0) <-> down (1), failure rate lambda, repair rate mu.
Ctmc TwoStateMachine(double lambda, double mu) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, lambda);
  chain.AddTransition(1, 0, mu);
  return chain;
}

TEST(CtmcTest, GeneratorRowsSumToZero) {
  const Ctmc chain = TwoStateMachine(0.1, 2.0);
  const Matrix q = chain.Generator();
  for (size_t r = 0; r < 2; ++r) {
    double row_sum = 0.0;
    for (size_t c = 0; c < 2; ++c) {
      row_sum += q.At(r, c);
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
}

TEST(CtmcTest, TwoStateSteadyState) {
  // pi_up = mu / (mu + lambda).
  const Ctmc chain = TwoStateMachine(0.1, 2.0);
  const auto pi = chain.TrySteadyState();
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 2.0 / 2.1, 1e-10);
  EXPECT_NEAR((*pi)[1], 0.1 / 2.1, 1e-10);
}

TEST(CtmcTest, MM1QueueSteadyStateIsGeometric) {
  // Truncated M/M/1 with arrival 1, service 2: pi_k ~ (1/2)^k.
  constexpr int kStates = 12;
  Ctmc chain(kStates);
  for (int k = 0; k < kStates - 1; ++k) {
    chain.AddTransition(k, k + 1, 1.0);
    chain.AddTransition(k + 1, k, 2.0);
  }
  const auto pi = chain.TrySteadyState();
  ASSERT_TRUE(pi.ok());
  for (int k = 1; k < kStates; ++k) {
    EXPECT_NEAR((*pi)[k] / (*pi)[k - 1], 0.5, 1e-9) << k;
  }
}

TEST(CtmcTest, SteadyStateOfAbsorbingChainConcentratesThere) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 1.0);  // 1 is absorbing.
  const auto pi = chain.TrySteadyState();
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 0.0, 1e-12);
  EXPECT_NEAR((*pi)[1], 1.0, 1e-12);
}

TEST(CtmcTest, SteadyStateFailsWithTwoAbsorbingComponents) {
  // Two disconnected absorbing sinks: the limit depends on the start state, so the balance
  // system is singular.
  Ctmc chain(4);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(2, 3, 1.0);
  EXPECT_FALSE(chain.TrySteadyState().ok());
}

TEST(CtmcTest, MeanTimeToAbsorptionExponential) {
  // Single transition 0 -> 1 at rate lambda: MTTA = 1/lambda.
  Ctmc chain(2);
  chain.AddTransition(0, 1, 0.25);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {1});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 4.0, 1e-10);
}

TEST(CtmcTest, MeanTimeToAbsorptionSeries) {
  // 0 -> 1 -> 2 with rates 1 and 2: MTTA = 1 + 0.5.
  Ctmc chain(3);
  chain.AddTransition(0, 1, 1.0);
  chain.AddTransition(1, 2, 2.0);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {2});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 1.5, 1e-10);
}

TEST(CtmcTest, MeanTimeToAbsorptionWithRepairClosedForm) {
  // Birth-death on {0,1,2}, absorb at 2: failure rate l, repair m from 1.
  // MTTA from 0 = (2l + m) / l^2 for this chain with both failure rates = l.
  const double l = 0.5;
  const double m = 3.0;
  Ctmc chain(3);
  chain.AddTransition(0, 1, l);
  chain.AddTransition(1, 0, m);
  chain.AddTransition(1, 2, l);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {2});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, (2 * l + m) / (l * l), 1e-9);
}

TEST(CtmcTest, MttaFromAbsorbingStateIsZero) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 1.0);
  const auto mtta = chain.TryMeanTimeToAbsorption(1, {1});
  ASSERT_TRUE(mtta.ok());
  EXPECT_DOUBLE_EQ(*mtta, 0.0);
}

TEST(CtmcTest, TransientDistributionTwoStateClosedForm) {
  // P(up at t) = mu/(l+m) + l/(l+m) e^{-(l+m)t} starting from up.
  const double l = 0.4;
  const double m = 1.6;
  const Ctmc chain = TwoStateMachine(l, m);
  const Vector initial = {1.0, 0.0};
  for (const double t : {0.1, 0.5, 1.0, 3.0}) {
    const Vector at_t = chain.TransientDistribution(initial, t);
    const double expected = m / (l + m) + l / (l + m) * std::exp(-(l + m) * t);
    EXPECT_NEAR(at_t[0], expected, 1e-9) << t;
    EXPECT_NEAR(at_t[0] + at_t[1], 1.0, 1e-9);
  }
}

TEST(CtmcTest, TransientAtZeroIsInitial) {
  const Ctmc chain = TwoStateMachine(1.0, 1.0);
  const Vector initial = {0.3, 0.7};
  const Vector at_zero = chain.TransientDistribution(initial, 0.0);
  EXPECT_DOUBLE_EQ(at_zero[0], 0.3);
  EXPECT_DOUBLE_EQ(at_zero[1], 0.7);
}

TEST(CtmcTest, TransientConvergesToSteadyState) {
  const Ctmc chain = TwoStateMachine(0.5, 1.5);
  const Vector initial = {1.0, 0.0};
  const Vector late = chain.TransientDistribution(initial, 100.0);
  const auto pi = chain.TrySteadyState();
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR(late[0], (*pi)[0], 1e-8);
  EXPECT_NEAR(late[1], (*pi)[1], 1e-8);
}

TEST(CtmcTest, TransientWithNoTransitionsReturnsInitial) {
  // Degenerate uniformization: a chain with no transitions has Lambda = 0, so there is
  // nothing to exponentiate — the distribution must pass through unchanged for ANY t, not
  // divide by zero. Regression for the uniformization rate guard.
  Ctmc chain(3);
  const Vector initial = {0.2, 0.5, 0.3};
  for (const double t : {0.0, 1.0, 1e6}) {
    const Vector at_t = chain.TransientDistribution(initial, t);
    EXPECT_DOUBLE_EQ(at_t[0], 0.2) << t;
    EXPECT_DOUBLE_EQ(at_t[1], 0.5) << t;
    EXPECT_DOUBLE_EQ(at_t[2], 0.3) << t;
  }
}

TEST(CtmcTest, TransientAllStatesAbsorbingIsAlsoDegenerate) {
  // Absorbing-only chains (every state retained, no outgoing rates) hit the same Lambda = 0
  // path even when states exist that COULD have transitions.
  Ctmc chain(2);
  const Vector initial = {1.0, 0.0};
  const Vector at_t = chain.TransientDistribution(initial, 42.0);
  EXPECT_DOUBLE_EQ(at_t[0], 1.0);
  EXPECT_DOUBLE_EQ(at_t[1], 0.0);
}

TEST(CtmcTest, TryTransientRejectsAstronomicalHorizons) {
  // rate * t over the term cap must surface as FAILED_PRECONDITION, not an int overflow in
  // the Poisson term loop.
  const Ctmc chain = TwoStateMachine(1.0, 1.0);
  const auto result = chain.TryTransientDistribution({1.0, 0.0}, 1e12, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CtmcTest, TrySolversHonorCancellation) {
  const Ctmc chain = TwoStateMachine(0.5, 1.5);
  CancelToken token;
  token.Cancel();
  const CtmcSolveOptions options{.cancel = &token};
  EXPECT_EQ(chain.TrySteadyState(options).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(chain.TryMeanTimeToAbsorption(0, {1}, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(chain.TryTransientDistribution({1.0, 0.0}, 10.0, options).status().code(),
            StatusCode::kCancelled);
}

TEST(CtmcTest, TrySolversMatchUncancelledBaseline) {
  const Ctmc chain = TwoStateMachine(0.4, 1.6);
  CancelToken unfired;
  const CtmcSolveOptions options{.cancel = &unfired};
  const auto baseline = chain.TrySteadyState();
  const auto tried = chain.TrySteadyState(options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(tried.ok());
  EXPECT_EQ((*tried)[0], (*baseline)[0]);
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {1});
  const auto tried_mtta = chain.TryMeanTimeToAbsorption(0, {1}, options);
  ASSERT_TRUE(mtta.ok());
  ASSERT_TRUE(tried_mtta.ok());
  EXPECT_EQ(*tried_mtta, *mtta);
  const Vector direct = chain.TransientDistribution({1.0, 0.0}, 2.5);
  const auto tried_transient = chain.TryTransientDistribution({1.0, 0.0}, 2.5, options);
  ASSERT_TRUE(tried_transient.ok());
  EXPECT_EQ((*tried_transient)[0], direct[0]);
}

TEST(CtmcTest, ProgressCellCountsUniformizationTerms) {
  std::atomic<uint64_t> steps{0};
  const Ctmc chain = TwoStateMachine(2.0, 2.0);
  const auto result = chain.TryTransientDistribution({1.0, 0.0}, 50.0, {.progress = &steps});
  ASSERT_TRUE(result.ok());
  // Lambda * t = 50 * ~4.08: uniformization needs at least that many Poisson terms.
  EXPECT_GT(steps.load(), 100u);
}

TEST(CtmcTest, AccumulatedParallelTransitions) {
  Ctmc chain(2);
  chain.AddTransition(0, 1, 0.5);
  chain.AddTransition(0, 1, 0.5);  // Accumulates to rate 1.
  const auto mtta = chain.TryMeanTimeToAbsorption(0, {1});
  ASSERT_TRUE(mtta.ok());
  EXPECT_NEAR(*mtta, 1.0, 1e-10);
}

}  // namespace
}  // namespace probcon
