// End-to-end determinism of the parallel analysis engine: every probability the toolkit
// reports must be BIT-IDENTICAL for any worker count (PROBCON_THREADS = 0, 1, 2, 8, ...).
// This is the contract documented in src/exec/thread_pool.h and docs/PERFORMANCE.md; these
// tests drive the real algorithms (Monte Carlo, exact enumeration, sensitivity, placement
// search, simulator sweeps) under ScopedThreadPool overrides and compare results with exact
// equality — no tolerances.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/placement.h"
#include "src/analysis/reliability.h"
#include "src/analysis/sensitivity.h"
#include "src/consensus/raft/raft_cluster.h"
#include "src/exec/parallel.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace probcon {
namespace {

const std::vector<int> kWorkerCounts = {0, 1, 2, 8};

std::vector<double> MixedProbabilities(int n) {
  std::vector<double> probs;
  probs.reserve(n);
  for (int i = 0; i < n; ++i) {
    probs.push_back(0.01 + 0.07 * (i % 5) / 4.0);
  }
  return probs;
}

// Runs `fn` once per worker count and checks every result equals the first (0-worker,
// purely sequential) run bit-for-bit.
template <typename Fn>
void ExpectIdenticalAcrossPools(const Fn& fn) {
  using Result = decltype(fn());
  bool have_reference = false;
  Result reference{};
  for (const int workers : kWorkerCounts) {
    ScopedThreadPool scoped(workers);
    const Result result = fn();
    if (!have_reference) {
      reference = result;
      have_reference = true;
    } else {
      EXPECT_EQ(result, reference) << "workers=" << workers;
    }
  }
}

TEST(DeterminismTest, MonteCarloEstimateIsThreadCountInvariant) {
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(64));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(64));
  MonteCarloOptions options;
  options.trials = 100'000;  // Several 2^14 chunks, so work genuinely distributes.
  ExpectIdenticalAcrossPools([&] {
    const auto ci = analyzer.EstimateEventProbability(predicate, options);
    return std::vector<double>{ci.point, ci.low, ci.high};
  });
}

TEST(DeterminismTest, MonteCarloHonorsCallerSeed) {
  // p = 0.5 puts the live probability near 1/2, so two different seed streams virtually
  // never produce the same hit count over 50k trials (at p ~ 1% both estimates saturate
  // at 1.0 and the comparison below would be vacuous).
  const auto analyzer = ReliabilityAnalyzer::ForUniformNodes(16, 0.5);
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(16));
  MonteCarloOptions options;
  options.trials = 50'000;
  options.seed = 12345;
  ScopedThreadPool scoped(2);
  const double first = analyzer.EstimateEventProbability(predicate, options).point;
  const double second = analyzer.EstimateEventProbability(predicate, options).point;
  EXPECT_EQ(first, second);
  options.seed = 54321;
  const double other_stream = analyzer.EstimateEventProbability(predicate, options).point;
  // Different root seeds select different chunk streams; identical estimates would mean
  // the seed is being ignored.
  EXPECT_NE(first, other_stream);
}

TEST(DeterminismTest, ExactEnumerationIsThreadCountInvariant) {
  // n=20: 2^20 configurations = 64 chunks of 2^14 — merge order genuinely matters here.
  const auto analyzer = ReliabilityAnalyzer::ForIndependentNodes(MixedProbabilities(20));
  const auto predicate = MakeRaftLivePredicate(RaftConfig::Standard(20));
  ExpectIdenticalAcrossPools([&] {
    const Probability p = analyzer.EventProbability(predicate, AnalysisMethod::kExact);
    return std::vector<double>{p.value(), p.complement()};
  });
}

TEST(DeterminismTest, SensitivityAnalysisIsThreadCountInvariant) {
  const auto probabilities = MixedProbabilities(9);
  ExpectIdenticalAcrossPools([&] {
    std::vector<double> flat;
    for (const NodeSensitivity& s : RaftSensitivity(probabilities)) {
      flat.push_back(static_cast<double>(s.node));
      flat.push_back(s.derivative);
      flat.push_back(s.complement_if_perfect);
      flat.push_back(s.complement_if_failed);
    }
    return flat;
  });
}

TEST(DeterminismTest, PlacementSearchIsThreadCountInvariant) {
  // 3^5 = 243 assignments across several 64-wide chunks; ties must resolve to the same
  // (earliest) assignment index at every worker count.
  const std::vector<double> nodes = {0.01, 0.02, 0.01, 0.03, 0.02};
  const std::vector<double> racks = {0.001, 0.002, 0.001};
  ExpectIdenticalAcrossPools([&] {
    const PlacementResult result = OptimizeRackPlacement(nodes, racks);
    std::vector<double> flat;
    for (const int rack : result.rack_of) {
      flat.push_back(static_cast<double>(rack));
    }
    flat.push_back(result.safe_and_live.value());
    return flat;
  });
}

TEST(DeterminismTest, TracedSimulatorSweepIsThreadCountInvariant) {
  // A RunTrials sweep of fully traced simulator runs: per-trial commit counts, safety
  // verdicts, and trace sizes must not depend on which pool thread ran which trial.
  ExpectIdenticalAcrossPools([&] {
    const auto trials = RunTrials(12, [](uint64_t trial) {
      RaftClusterOptions options;
      options.config = RaftConfig::Standard(5);
      options.seed = 1000 + trial;
      RaftCluster cluster(options);
      TraceLog trace;
      MetricsRegistry metrics;
      cluster.simulator().AttachTracer(&trace, &metrics);
      cluster.Start();
      cluster.RunUntil(2'000.0);
      return std::vector<uint64_t>{cluster.checker().max_committed_slot(),
                                   cluster.checker().safe() ? 1u : 0u,
                                   static_cast<uint64_t>(trace.events().size())};
    });
    std::vector<uint64_t> flat;
    for (const auto& t : trials) {
      flat.insert(flat.end(), t.begin(), t.end());
    }
    return flat;
  });
}

}  // namespace
}  // namespace probcon
