// Per-round reliability over a RoundSchedule: the paper's one-shot Theorems 3.1/3.2
// re-evaluated for every consensus round as the fleet ages along its fault curves, plus the
// cumulative mission-level aggregates an operator actually plans against.
//
// Two complementary fault regimes are reported side by side:
//
//   per_round    Fresh Bernoulli draws each round (the "Bernoulli Meets PBFT" model): round
//                r is analyzed with the schedule's p^(r) vector alone. mission_live /
//                mission_safe multiply these per-round probabilities, which assumes
//                round-over-round independence — faulty nodes are rejuvenated between
//                rounds (crash-recovery, proactive restarts).
//   cumulative   Fail-stop accumulation: round r is analyzed with q_i^(r) =
//                1 - prod_{s<=r}(1 - p_i^(s)), the probability node i has failed by round
//                r's end with no repair. The last entry is the mission-end report; under
//                fail-stop, "live at every round" equals "live at the last round" because
//                the failed set only grows.
//
// The same schedule drives sim::FailureInjector through RoundSchedule::NodeCurve, so every
// number here is cross-validated against discrete-event campaigns in
// tests/analysis/round_analysis_test.cc.

#ifndef PROBCON_SRC_ANALYSIS_ROUND_ANALYSIS_H_
#define PROBCON_SRC_ANALYSIS_ROUND_ANALYSIS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/analysis/protocol_spec.h"
#include "src/analysis/reliability.h"
#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/faultmodel/round_schedule.h"
#include "src/prob/probability.h"

namespace probcon {

struct RoundAnalysis {
  // One report per schedule round, fresh-draw regime.
  std::vector<ReliabilityReport> per_round;
  // One report per schedule round, fail-stop regime (accumulated failure probabilities).
  std::vector<ReliabilityReport> cumulative;
  // P(every round safe/live) under the fresh-draw independence assumption.
  Probability mission_safe;
  Probability mission_live;
  Probability mission_safe_and_live;
};

// Evaluates `config` against every round of `schedule` (config.n must equal schedule.n()),
// each regime of each round through TryAnalyzeRaft / TryAnalyzePbft. Cancellable: polls
// between rounds and inside each round's evaluation; `progress` is handed to every
// evaluation, so it counts enumerated configurations exactly as TryEventProbability does
// (none on the count-DP path).
Result<RoundAnalysis> TryAnalyzeRaftRounds(const RaftConfig& config,
                                           const RoundSchedule& schedule,
                                           AnalysisMethod method = AnalysisMethod::kAuto,
                                           const CancelToken* cancel = nullptr,
                                           std::atomic<uint64_t>* progress = nullptr);
Result<RoundAnalysis> TryAnalyzePbftRounds(const PbftConfig& config,
                                           const RoundSchedule& schedule,
                                           AnalysisMethod method = AnalysisMethod::kAuto,
                                           const CancelToken* cancel = nullptr,
                                           std::atomic<uint64_t>* progress = nullptr);

// CHECK-on-error conveniences for examples and tests.
RoundAnalysis AnalyzeRaftRounds(const RaftConfig& config, const RoundSchedule& schedule,
                                AnalysisMethod method = AnalysisMethod::kAuto);
RoundAnalysis AnalyzePbftRounds(const PbftConfig& config, const RoundSchedule& schedule,
                                AnalysisMethod method = AnalysisMethod::kAuto);

}  // namespace probcon

#endif  // PROBCON_SRC_ANALYSIS_ROUND_ANALYSIS_H_
