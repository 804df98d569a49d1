// Rack/failure-domain placement optimization.
//
// E13 shows HOW MUCH placement matters under correlated faults; this module answers the
// operator's follow-up: given n replicas and r racks (each with its own domain-event
// probability), WHICH assignment maximizes the cluster's safe-and-live probability? Small
// clusters admit exhaustive search over assignments; the search space collapses by rack
// symmetry only when racks are identical, so we search assignments directly (r^n, pruned by
// fixing node 0's rack when racks are exchangeable is left to callers). Raft's standard
// quorum depends on the failure count alone, so each assignment is one count query on its
// FailureDomainModel's count law: O(n^2), not a 2^n enumeration.

#ifndef PROBCON_SRC_ANALYSIS_PLACEMENT_H_
#define PROBCON_SRC_ANALYSIS_PLACEMENT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/analysis/reliability.h"
#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/prob/probability.h"

namespace probcon {

struct PlacementResult {
  std::vector<int> rack_of;  // Best assignment found: rack_of[i] for node i.
  Probability safe_and_live;
};

// The exhaustive search's limits: r^n assignments, each an O(n^2) count law.
inline constexpr int kMaxPlacementNodes = 10;
inline constexpr int kMaxPlacementRacks = 5;

// The search's preconditions: 1 to kMaxPlacementNodes nodes, 1 to kMaxPlacementRacks
// racks, and every probability in [0, 1].
Status ValidateRackPlacement(const std::vector<double>& node_base_probabilities,
                             const std::vector<double>& rack_probabilities);

// Evaluates standard-quorum Raft S&L for one assignment under a FailureDomainModel built
// from `node_base_probabilities` and `rack_probabilities`.
Probability EvaluateRackPlacement(const std::vector<double>& node_base_probabilities,
                                  const std::vector<double>& rack_probabilities,
                                  const std::vector<int>& rack_of);

// Exhaustive search over all r^n rack assignments. Of assignments whose results are equal
// bit for bit, the lowest assignment index wins. Assignments that tie only in exact
// arithmetic (say, two that put the same node probabilities in each rack) are told apart
// by rounding, so which of them wins may change with the arithmetic of the evaluation.
// CHECKs ValidateRackPlacement. Each assignment polls `cancel` before it is evaluated
// (kCancelled once it fires) and is counted into `progress` through its chunk's StridePoll:
// r^n for a finished search. The plain form CHECKs the cancellable one.
Result<PlacementResult> TryOptimizeRackPlacement(
    const std::vector<double>& node_base_probabilities,
    const std::vector<double>& rack_probabilities, const CancelToken* cancel = nullptr,
    std::atomic<uint64_t>* progress = nullptr);
PlacementResult OptimizeRackPlacement(const std::vector<double>& node_base_probabilities,
                                      const std::vector<double>& rack_probabilities);

}  // namespace probcon

#endif  // PROBCON_SRC_ANALYSIS_PLACEMENT_H_
