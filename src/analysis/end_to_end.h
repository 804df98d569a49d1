// End-to-end guarantees (paper §4): translating consensus-level probabilistic
// safety/liveness into the availability and durability nines applications actually buy.
//
// The paper's observations, made computable:
//   * "A live consensus protocol might not be able to meet the availability requirements if
//     its recovery or reconfiguration is intolerably slow" — availability is a function of
//     BOTH the per-window liveness probability (outage frequency) and the mean time to
//     recover (outage duration).
//   * "An unsafe system may commit different operations at different nodes yet remain
//     durable if both forks are preserved" — durability is a function of the safety-loss
//     rate AND the probability that a safety incident actually destroys data rather than
//     forking it.

#ifndef PROBCON_SRC_ANALYSIS_END_TO_END_H_
#define PROBCON_SRC_ANALYSIS_END_TO_END_H_

#include "src/analysis/reliability.h"
#include "src/common/status.h"
#include "src/prob/probability.h"

namespace probcon {

struct EndToEndParams {
  // Consensus-level per-window reliability (from AnalyzeRaft / AnalyzePbft / ...).
  ReliabilityReport consensus;
  double window_hours = 0.0;          // Length of the analysis window behind `consensus`.
  double mean_time_to_recover = 0.0;  // Hours to restore service after a liveness outage.
  // P(a safety violation destroys data | violation occurred). 0 = forks always preserved
  // and reconciled; 1 = every violation loses data.
  double data_loss_given_violation = 1.0;
  double mission_hours = 8766.0;  // Horizon for the durability figure (default one year).
};

struct EndToEndReport {
  // Long-run fraction of time the service answers: uptime / (uptime + downtime), where
  // outages arrive at the liveness-failure rate and last mean_time_to_recover.
  Probability availability;
  // P(no data loss over the mission horizon): safety-violation arrivals thinned by the
  // fork-preservation probability.
  Probability mission_durability;
  // Expected outage minutes per year (the SLA currency).
  double outage_minutes_per_year = 0.0;
};

// The preconditions on `params`' scalars: finite window_hours > 0, mean_time_to_recover >= 0
// and mission_hours > 0, and data_loss_given_violation in [0, 1].
Status ValidateEndToEndParams(const EndToEndParams& params);

// Derives application-level guarantees from consensus-level ones. Window failure
// probabilities are converted to Poisson rates (valid for the small complements this
// library deals in). CHECKs ValidateEndToEndParams.
EndToEndReport ComputeEndToEnd(const EndToEndParams& params);

}  // namespace probcon

#endif  // PROBCON_SRC_ANALYSIS_END_TO_END_H_
