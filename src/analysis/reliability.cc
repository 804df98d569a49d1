#include "src/analysis/reliability.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/exec/parallel.h"
#include "src/prob/kahan.h"
#include "src/quorum/quorum_system.h"

namespace probcon {
namespace {

// Fixed chunk sizes of the parallel strategies. These are part of each result's
// definition (they fix the per-chunk RNG streams and the Kahan merge order), so they must
// never depend on the worker count — see the determinism contract in src/exec.
constexpr uint64_t kEnumerationChunk = uint64_t{1} << 14;
constexpr uint64_t kMonteCarloChunk = uint64_t{1} << 14;

// Per-chunk partial of a probability-mass split into {predicate holds, predicate fails}.
struct MassPartial {
  KahanSum holds;
  KahanSum fails;
};

Probability MassVerdict(const KahanSum& holds_mass, const KahanSum& fails_mass) {
  // Report the smaller of {holds, fails} mass for complement accuracy.
  const double holds = holds_mass.Total();
  const double fails = fails_mass.Total();
  if (fails <= holds) {
    return Probability::FromComplement(std::max(0.0, fails));
  }
  return Probability::FromProbability(std::max(0.0, holds));
}

// Evaluates a count predicate against a failure-count law (`pmf[k]` = P(k failures)). O(N)
// given the precomputed law, so it runs serially.
Probability CountDpProbability(const FailurePredicate& predicate,
                               const std::vector<double>& pmf) {
  const int n = static_cast<int>(pmf.size()) - 1;
  KahanSum holds_mass;
  KahanSum fails_mass;
  for (int k = 0; k <= n; ++k) {
    const auto verdict = predicate.HoldsForCount(k, n);
    CHECK(verdict.has_value());
    if (*verdict) {
      holds_mass.Add(pmf[k]);
    } else {
      fails_mass.Add(pmf[k]);
    }
  }
  return MassVerdict(holds_mass, fails_mass);
}

// Range-partitions the 2^N configuration space; each chunk accumulates compensated
// holds/fails partial sums, merged in fixed chunk order so the result is bit-identical
// for every thread count. `cancel` and `progress` act as in ParallelReduce and StridePoll.
Result<Probability> ExactEnumerationProbability(const FailurePredicate& predicate,
                                                const JointFailureModel& model,
                                                const CancelToken* cancel,
                                                std::atomic<uint64_t>* progress) {
  const int n = model.n();
  CHECK_LE(n, 25) << "exact enumeration limited to n <= 25";
  const Result<MassPartial> total = ParallelReduce<MassPartial>(
      0, uint64_t{1} << n, kEnumerationChunk, MassPartial{},
      [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t /*chunk_index*/) {
        MassPartial partial;
        StridePoll poll(cancel, progress);
        for (uint64_t config = chunk_begin; config < chunk_end; ++config) {
          const auto prob = model.ConfigurationProbability(config);
          CHECK(prob.has_value()) << "model" << model.Describe()
                                  << "lacks exact configuration probabilities";
          if (predicate.Holds(config, n)) {
            partial.holds.Add(*prob);
          } else {
            partial.fails.Add(*prob);
          }
          if (!poll.Tick()) break;
        }
        return partial;
      },
      [](MassPartial& acc, MassPartial&& partial) {
        acc.holds.Merge(partial.holds);
        acc.fails.Merge(partial.fails);
      },
      nullptr, cancel);
  if (!total.ok()) return total.status();
  return MassVerdict(total->holds, total->fails);
}

}  // namespace

ReliabilityAnalyzer::ReliabilityAnalyzer(std::unique_ptr<JointFailureModel> model)
    : model_(std::move(model)) {
  CHECK(model_ != nullptr);
}

ReliabilityAnalyzer::ReliabilityAnalyzer(ReliabilityAnalyzer&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.count_law_mutex_);
  model_ = std::move(other.model_);
  count_law_ = std::move(other.count_law_);
}

ReliabilityAnalyzer& ReliabilityAnalyzer::operator=(ReliabilityAnalyzer&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(count_law_mutex_, other.count_law_mutex_);
    model_ = std::move(other.model_);
    count_law_ = std::move(other.count_law_);
  }
  return *this;
}

const std::optional<std::vector<double>>& ReliabilityAnalyzer::CountLaw() const {
  std::lock_guard<std::mutex> lock(count_law_mutex_);
  if (count_law_ == nullptr) {
    count_law_ = std::make_shared<const std::optional<std::vector<double>>>(model_->CountLaw());
  }
  return *count_law_;
}

ReliabilityAnalyzer ReliabilityAnalyzer::ForIndependentNodes(
    std::vector<double> failure_probabilities) {
  return ReliabilityAnalyzer(
      std::make_unique<IndependentFailureModel>(std::move(failure_probabilities)));
}

ReliabilityAnalyzer ReliabilityAnalyzer::ForUniformNodes(int n, double p) {
  return ForIndependentNodes(std::vector<double>(static_cast<size_t>(n), p));
}

Probability ReliabilityAnalyzer::EventProbability(const FailurePredicate& predicate,
                                                  AnalysisMethod method) const {
  Result<Probability> result = TryEventProbability(predicate, method, nullptr);
  CHECK(result.ok()) << result.status().ToString();
  return *result;
}

Result<Probability> ReliabilityAnalyzer::TryEventProbability(
    const FailurePredicate& predicate, AnalysisMethod method, const CancelToken* cancel,
    std::atomic<uint64_t>* progress) const {
  const bool count_only = predicate.HoldsForCount(0, n()).has_value();

  if (method == AnalysisMethod::kAuto) {
    if (count_only && CountLaw().has_value()) {
      method = AnalysisMethod::kCountDp;
    } else {
      method = AnalysisMethod::kExact;
    }
  }
  if (IsCancelled(cancel)) {
    return CancelledError("analysis cancelled before start");
  }
  switch (method) {
    case AnalysisMethod::kCountDp: {
      CHECK(count_only) << "predicate is not count-only";
      const std::optional<std::vector<double>>& law = CountLaw();
      CHECK(law.has_value()) << "model" << model_->Describe() << "has no count law";
      return CountDpProbability(predicate, *law);
    }
    case AnalysisMethod::kExact:
      return ExactEnumerationProbability(predicate, *model_, cancel, progress);
    case AnalysisMethod::kMonteCarlo: {
      MonteCarloOptions options;
      options.cancel = cancel;
      options.progress = progress;
      Result<ConfidenceInterval> ci = TryEstimateEventProbability(predicate, options);
      if (!ci.ok()) return ci.status();
      return Probability::FromProbability(ci->point);
    }
    case AnalysisMethod::kAuto:
      break;
  }
  CHECK(false) << "unreachable";
  return Probability::Zero();
}

ConfidenceInterval ReliabilityAnalyzer::EstimateEventProbability(
    const FailurePredicate& predicate, const MonteCarloOptions& options) const {
  Result<ConfidenceInterval> result = TryEstimateEventProbability(predicate, options);
  CHECK(result.ok()) << result.status().ToString();
  return *result;
}

Result<ConfidenceInterval> ReliabilityAnalyzer::TryEstimateEventProbability(
    const FailurePredicate& predicate, const MonteCarloOptions& options) const {
  CHECK_GT(options.trials, 0u);
  // Chunked sampling with per-chunk generators derived from (options.seed, chunk_index):
  // the hit count is a pure function of the options, never of the thread count. See the
  // seeding-scheme note in src/common/rng.h. Cancellation only ever abandons work, so it
  // cannot perturb the estimate of a completed run.
  const Result<uint64_t> holds = ParallelReduce<uint64_t>(
      0, options.trials, kMonteCarloChunk, 0,
      [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t chunk_index) {
        Rng rng(DeriveStreamSeed(options.seed, chunk_index));
        uint64_t chunk_holds = 0;
        StridePoll poll(options.cancel, options.progress);
        for (uint64_t t = chunk_begin; t < chunk_end; ++t) {
          if (predicate.Holds(model_->Sample(rng), n())) {
            ++chunk_holds;
          }
          if (!poll.Tick()) break;
        }
        return chunk_holds;
      },
      [](uint64_t& acc, uint64_t partial) { acc += partial; }, nullptr, options.cancel);
  if (!holds.ok()) return holds.status();
  return WilsonInterval(*holds, options.trials);
}

// ---------------------------------------------------------------------------
// Protocol reports

CountPredicate MakeRaftLivePredicate(RaftConfig config) {
  return CountPredicate([config](int failure_count, int n) {
    CHECK_EQ(n, config.n);
    return RaftIsLive(config, n - failure_count);
  });
}

CountPredicate MakePbftSafePredicate(PbftConfig config) {
  return CountPredicate([config](int failure_count, int n) {
    CHECK_EQ(n, config.n);
    return PbftIsSafe(config, failure_count);
  });
}

CountPredicate MakePbftLivePredicate(PbftConfig config) {
  return CountPredicate([config](int failure_count, int n) {
    CHECK_EQ(n, config.n);
    return PbftIsLive(config, failure_count);
  });
}

CountPredicate MakePbftSafeAndLivePredicate(PbftConfig config) {
  return CountPredicate([config](int failure_count, int n) {
    CHECK_EQ(n, config.n);
    return PbftIsSafe(config, failure_count) && PbftIsLive(config, failure_count);
  });
}

Result<ReliabilityReport> TryAnalyzeRaft(const RaftConfig& config,
                                         const ReliabilityAnalyzer& analyzer,
                                         AnalysisMethod method, const CancelToken* cancel,
                                         std::atomic<uint64_t>* progress) {
  CHECK_EQ(config.n, analyzer.n());
  ReliabilityReport report;
  const bool structurally_safe = RaftIsSafeStructurally(config);
  report.safe = structurally_safe ? Probability::One() : Probability::Zero();
  Result<Probability> live =
      analyzer.TryEventProbability(MakeRaftLivePredicate(config), method, cancel, progress);
  if (!live.ok()) return live.status();
  report.live = *live;
  report.safe_and_live = structurally_safe ? report.live : Probability::Zero();
  return report;
}

ReliabilityReport AnalyzeRaft(const RaftConfig& config, const ReliabilityAnalyzer& analyzer,
                              AnalysisMethod method) {
  Result<ReliabilityReport> report = TryAnalyzeRaft(config, analyzer, method);
  CHECK(report.ok()) << report.status().ToString();
  return *report;
}

Result<ReliabilityReport> TryAnalyzePbft(const PbftConfig& config,
                                         const ReliabilityAnalyzer& analyzer,
                                         AnalysisMethod method, const CancelToken* cancel,
                                         std::atomic<uint64_t>* progress) {
  CHECK_EQ(config.n, analyzer.n());
  ReliabilityReport report;
  Result<Probability> safe =
      analyzer.TryEventProbability(MakePbftSafePredicate(config), method, cancel, progress);
  if (!safe.ok()) return safe.status();
  Result<Probability> live =
      analyzer.TryEventProbability(MakePbftLivePredicate(config), method, cancel, progress);
  if (!live.ok()) return live.status();
  Result<Probability> both = analyzer.TryEventProbability(MakePbftSafeAndLivePredicate(config),
                                                          method, cancel, progress);
  if (!both.ok()) return both.status();
  report.safe = *safe;
  report.live = *live;
  report.safe_and_live = *both;
  return report;
}

ReliabilityReport AnalyzePbft(const PbftConfig& config, const ReliabilityAnalyzer& analyzer,
                              AnalysisMethod method) {
  Result<ReliabilityReport> report = TryAnalyzePbft(config, analyzer, method);
  CHECK(report.ok()) << report.status().ToString();
  return *report;
}

Result<ConfidenceInterval> TryEstimateRaftLive(const RaftConfig& config,
                                               const ReliabilityAnalyzer& analyzer,
                                               const MonteCarloOptions& options) {
  return analyzer.TryEstimateEventProbability(MakeRaftLivePredicate(config), options);
}

Result<ConfidenceInterval> TryEstimatePbftSafeAndLive(const PbftConfig& config,
                                                      const ReliabilityAnalyzer& analyzer,
                                                      const MonteCarloOptions& options) {
  return analyzer.TryEstimateEventProbability(MakePbftSafeAndLivePredicate(config), options);
}

}  // namespace probcon
