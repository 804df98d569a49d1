#include "src/analysis/round_analysis.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace probcon {
namespace {

// Per-round q_i vectors under fail-stop accumulation: q_i^(r) = 1 - prod_{s<=r}(1 - p^(s)).
// Each node carries log survival, sum log1p(-p), and q = -expm1(sum), so a q far below
// machine epsilon keeps its digits instead of cancelling in 1 - survival.
std::vector<std::vector<double>> AccumulatedProbabilities(const RoundSchedule& schedule) {
  std::vector<double> log_survival(static_cast<size_t>(schedule.n()), 0.0);
  std::vector<std::vector<double>> accumulated;
  accumulated.reserve(static_cast<size_t>(schedule.rounds()));
  for (int r = 0; r < schedule.rounds(); ++r) {
    const std::vector<double>& p = schedule.RoundProbabilities(r);
    std::vector<double> q(static_cast<size_t>(schedule.n()), 0.0);
    for (size_t i = 0; i < q.size(); ++i) {
      log_survival[i] += std::log1p(-p[i]);
      q[i] = -std::expm1(log_survival[i]);
    }
    accumulated.push_back(std::move(q));
  }
  return accumulated;
}

// Runs `analyze_round` (one round's failure probabilities -> its report) over both regimes
// of every round and folds the per-round reports into the mission aggregates.
template <typename AnalyzeRound>
Result<RoundAnalysis> TryAnalyzeRounds(const RoundSchedule& schedule, const CancelToken* cancel,
                                       const AnalyzeRound& analyze_round) {
  const std::vector<std::vector<double>> accumulated = AccumulatedProbabilities(schedule);
  RoundAnalysis analysis;
  analysis.per_round.reserve(static_cast<size_t>(schedule.rounds()));
  analysis.cumulative.reserve(static_cast<size_t>(schedule.rounds()));
  analysis.mission_safe = Probability::One();
  analysis.mission_live = Probability::One();
  analysis.mission_safe_and_live = Probability::One();
  for (int r = 0; r < schedule.rounds(); ++r) {
    if (IsCancelled(cancel)) {
      return CancelledError("round analysis cancelled");
    }
    Result<ReliabilityReport> fresh = analyze_round(schedule.RoundProbabilities(r));
    if (!fresh.ok()) {
      return fresh.status();
    }
    Result<ReliabilityReport> fail_stop = analyze_round(accumulated[static_cast<size_t>(r)]);
    if (!fail_stop.ok()) {
      return fail_stop.status();
    }
    // And() multiplies in complement-aware form, so a mission of thousands of >5-nines
    // rounds keeps its failure mass intact instead of rounding back to 1.0.
    analysis.mission_safe = analysis.mission_safe.And(fresh->safe);
    analysis.mission_live = analysis.mission_live.And(fresh->live);
    analysis.mission_safe_and_live = analysis.mission_safe_and_live.And(fresh->safe_and_live);
    analysis.per_round.push_back(*std::move(fresh));
    analysis.cumulative.push_back(*std::move(fail_stop));
  }
  return analysis;
}

}  // namespace

Result<RoundAnalysis> TryAnalyzeRaftRounds(const RaftConfig& config,
                                           const RoundSchedule& schedule,
                                           AnalysisMethod method, const CancelToken* cancel,
                                           std::atomic<uint64_t>* progress) {
  return TryAnalyzeRounds(schedule, cancel, [&](const std::vector<double>& probabilities) {
    return TryAnalyzeRaft(config, ReliabilityAnalyzer::ForIndependentNodes(probabilities),
                          method, cancel, progress);
  });
}

Result<RoundAnalysis> TryAnalyzePbftRounds(const PbftConfig& config,
                                           const RoundSchedule& schedule,
                                           AnalysisMethod method, const CancelToken* cancel,
                                           std::atomic<uint64_t>* progress) {
  return TryAnalyzeRounds(schedule, cancel, [&](const std::vector<double>& probabilities) {
    return TryAnalyzePbft(config, ReliabilityAnalyzer::ForIndependentNodes(probabilities),
                          method, cancel, progress);
  });
}

RoundAnalysis AnalyzeRaftRounds(const RaftConfig& config, const RoundSchedule& schedule,
                                AnalysisMethod method) {
  auto analysis = TryAnalyzeRaftRounds(config, schedule, method);
  CHECK(analysis.ok()) << analysis.status().ToString();
  return *std::move(analysis);
}

RoundAnalysis AnalyzePbftRounds(const PbftConfig& config, const RoundSchedule& schedule,
                                AnalysisMethod method) {
  auto analysis = TryAnalyzePbftRounds(config, schedule, method);
  CHECK(analysis.ok()) << analysis.status().ToString();
  return *std::move(analysis);
}

}  // namespace probcon
