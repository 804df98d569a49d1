// The reliability analyzer: computes P(predicate holds) over failure configurations of a
// cluster — the computation behind every number in the paper's §3.
//
// "By calculating how likely each failure configuration is, we can compute the overall
//  probability that an algorithm guarantees safety and liveness in this specific deployment
//  environment."  (§3)
//
// Three evaluation strategies sit behind one API (timed per call by the probcond_bench
// replay rows analysis.enumeration.ns_per_config, analysis.count_dp.us_per_call and
// analysis.montecarlo.ns_per_trial):
//
//   kExact       2^N enumeration over failure configurations. Handles predicates that depend
//                on WHICH nodes failed and any model with exact configuration probabilities.
//                Practical to N ~ 25.
//   kCountDp     Sums a count-only predicate over the model's failure-count law
//                (JointFailureModel::CountLaw): an O(N^2) dynamic program, any N, for every
//                model with a law — independent nodes (the Poisson-binomial) and failure
//                domains. This covers Theorems 3.1/3.2, regenerates Tables 1 and 2, and
//                evaluates each assignment of the placement search.
//   kMonteCarlo  Sampling with a Wilson confidence interval. The only option for correlated
//                models without closed-form configuration probabilities, or N > 25.
//
// kAuto picks the cheapest applicable strategy: the count DP for a count-only predicate on
// a model with a count law, enumeration otherwise (common-cause and beta-binomial models
// keep enumerating until their laws land).

#ifndef PROBCON_SRC_ANALYSIS_RELIABILITY_H_
#define PROBCON_SRC_ANALYSIS_RELIABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/protocol_spec.h"
#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/faultmodel/joint_model.h"
#include "src/prob/interval.h"
#include "src/prob/probability.h"

namespace probcon {

// A predicate over failure configurations (true = the property, e.g. "safe", holds).
class FailurePredicate {
 public:
  virtual ~FailurePredicate() = default;

  // Evaluates the predicate for an explicit failure configuration.
  virtual bool Holds(FailureConfiguration failed, int n) const = 0;

  // If the predicate depends only on the NUMBER of failures, returns its value for that
  // count; otherwise nullopt. Enables the O(N^2) path.
  virtual std::optional<bool> HoldsForCount(int failure_count, int n) const {
    (void)failure_count;
    (void)n;
    return std::nullopt;
  }
};

// Adapts a count function; automatically eligible for the DP path.
class CountPredicate final : public FailurePredicate {
 public:
  explicit CountPredicate(std::function<bool(int failure_count, int n)> fn)
      : fn_(std::move(fn)) {}

  bool Holds(FailureConfiguration failed, int n) const override {
    return fn_(CountFailures(failed), n);
  }
  std::optional<bool> HoldsForCount(int failure_count, int n) const override {
    return fn_(failure_count, n);
  }

 private:
  std::function<bool(int, int)> fn_;
};

// Adapts a configuration function (no count fast path).
class ConfigurationPredicate final : public FailurePredicate {
 public:
  explicit ConfigurationPredicate(std::function<bool(FailureConfiguration, int)> fn)
      : fn_(std::move(fn)) {}

  bool Holds(FailureConfiguration failed, int n) const override { return fn_(failed, n); }

 private:
  std::function<bool(FailureConfiguration, int)> fn_;
};

enum class AnalysisMethod {
  kAuto,
  kExact,
  kCountDp,
  kMonteCarlo,
};

struct MonteCarloOptions {
  uint64_t trials = 1'000'000;
  // Root seed of the estimate. Trials are split into fixed-size chunks and chunk c draws
  // from Rng(DeriveStreamSeed(seed, c)) — see src/common/rng.h for the scheme — so the
  // estimate is a pure function of (model, predicate, trials, seed), independent of the
  // thread count executing it.
  uint64_t seed = 42;
  // Optional cooperative cancellation: ParallelReduce polls this token before each chunk
  // and a StridePoll every kCancellationPollStride trials inside one; the Try* APIs return
  // kCancelled once it fires. An uncancelled run performs exactly the same work in the same
  // order, so results stay bit-identical with or without a token.
  const CancelToken* cancel = nullptr;
  // Optional progress cell: the same StridePoll adds completed trials to it every
  // kCancellationPollStride trials and at the end of each chunk, so an observer — the
  // serving daemon's serve.engine.mc_trials counter — can watch a long estimate advance.
  // Purely observational; never read by the computation.
  std::atomic<uint64_t>* progress = nullptr;
};

class ReliabilityAnalyzer {
 public:
  explicit ReliabilityAnalyzer(std::unique_ptr<JointFailureModel> model);

  ReliabilityAnalyzer(ReliabilityAnalyzer&& other) noexcept;
  ReliabilityAnalyzer& operator=(ReliabilityAnalyzer&& other) noexcept;

  // Convenience: independent failures with the given per-node probabilities.
  static ReliabilityAnalyzer ForIndependentNodes(std::vector<double> failure_probabilities);
  static ReliabilityAnalyzer ForUniformNodes(int n, double p);

  const JointFailureModel& model() const { return *model_; }
  int n() const { return model_->n(); }

  // P(predicate holds), complement-tracked. CHECK-fails if no exact strategy applies (use
  // EstimateEventProbability for those cases).
  Probability EventProbability(const FailurePredicate& predicate,
                               AnalysisMethod method = AnalysisMethod::kAuto) const;

  // Monte Carlo estimate with a 95% Wilson interval; works with every model.
  ConfidenceInterval EstimateEventProbability(const FailurePredicate& predicate,
                                              const MonteCarloOptions& options = {}) const;

  // Cancellable variants, for serving contexts where an operator deadline can fire mid
  // computation: identical math and bit-identical results while the token stays unset, a
  // prompt kCancelled (work abandoned at the next poll) once it fires. `progress`, when
  // non-null, accumulates evaluated configurations (exact path) or completed trials
  // (Monte Carlo path) exactly as MonteCarloOptions::progress does.
  Result<Probability> TryEventProbability(const FailurePredicate& predicate,
                                          AnalysisMethod method = AnalysisMethod::kAuto,
                                          const CancelToken* cancel = nullptr,
                                          std::atomic<uint64_t>* progress = nullptr) const;
  Result<ConfidenceInterval> TryEstimateEventProbability(
      const FailurePredicate& predicate, const MonteCarloOptions& options = {}) const;

  // The model's failure-count law (JointFailureModel::CountLaw), or its absence, built on
  // first use and shared by every count-DP evaluation against this analyzer (AnalyzePbft
  // evaluates three predicates per report; all three read the same table). Thread-safe.
  const std::optional<std::vector<double>>& CountLaw() const;

 private:
  std::unique_ptr<JointFailureModel> model_;
  // Lazy-init lock for the count law. LEAF: held only around the law's build/lookup.
  mutable std::mutex count_law_mutex_;
  // Null until first use; then the law or nullopt.
  mutable std::shared_ptr<const std::optional<std::vector<double>>> count_law_
      PROBCON_GUARDED_BY(count_law_mutex_);
};

// --- Paper §3.2: protocol reliability reports -------------------------------

struct ReliabilityReport {
  Probability safe;
  Probability live;
  Probability safe_and_live;
};

// Theorem 3.2 applied to `model`. Safety is structural (probability 0 or 1); liveness and
// safe&live come from the failure-count law. Every Raft report is built here: the plain
// form CHECKs the cancellable one. `cancel` and `progress` act as in TryEventProbability.
Result<ReliabilityReport> TryAnalyzeRaft(const RaftConfig& config,
                                         const ReliabilityAnalyzer& analyzer,
                                         AnalysisMethod method = AnalysisMethod::kAuto,
                                         const CancelToken* cancel = nullptr,
                                         std::atomic<uint64_t>* progress = nullptr);
ReliabilityReport AnalyzeRaft(const RaftConfig& config, const ReliabilityAnalyzer& analyzer,
                              AnalysisMethod method = AnalysisMethod::kAuto);

// Theorem 3.1 applied to `model`; failed nodes are treated as Byzantine (the paper's §3
// convention for BFT analysis). Safe, live and safe&live are evaluated in that order.
Result<ReliabilityReport> TryAnalyzePbft(const PbftConfig& config,
                                         const ReliabilityAnalyzer& analyzer,
                                         AnalysisMethod method = AnalysisMethod::kAuto,
                                         const CancelToken* cancel = nullptr,
                                         std::atomic<uint64_t>* progress = nullptr);
ReliabilityReport AnalyzePbft(const PbftConfig& config, const ReliabilityAnalyzer& analyzer,
                              AnalysisMethod method = AnalysisMethod::kAuto);

// Monte Carlo estimates of each protocol's headline event, with a 95% Wilson interval:
// Raft liveness (its safety is structural, so there is nothing to sample) and PBFT
// safe&live.
Result<ConfidenceInterval> TryEstimateRaftLive(const RaftConfig& config,
                                               const ReliabilityAnalyzer& analyzer,
                                               const MonteCarloOptions& options);
Result<ConfidenceInterval> TryEstimatePbftSafeAndLive(const PbftConfig& config,
                                                      const ReliabilityAnalyzer& analyzer,
                                                      const MonteCarloOptions& options);

// Predicate factories, exposed for custom sweeps and for the Monte Carlo cross-validation
// benches.
CountPredicate MakeRaftLivePredicate(RaftConfig config);
CountPredicate MakePbftSafePredicate(PbftConfig config);
CountPredicate MakePbftLivePredicate(PbftConfig config);
CountPredicate MakePbftSafeAndLivePredicate(PbftConfig config);

}  // namespace probcon

#endif  // PROBCON_SRC_ANALYSIS_RELIABILITY_H_
