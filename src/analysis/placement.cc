#include "src/analysis/placement.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/exec/parallel.h"
#include "src/faultmodel/joint_model.h"

namespace probcon {
namespace {

// Decodes assignment index `index` (base-r digits, node 0 least significant — the same
// order the sequential odometer visited) into rack_of form.
std::vector<int> DecodeAssignment(uint64_t index, int n, int racks) {
  std::vector<int> assignment(static_cast<size_t>(n));
  for (int node = 0; node < n; ++node) {
    assignment[static_cast<size_t>(node)] = static_cast<int>(index % static_cast<uint64_t>(racks));
    index /= static_cast<uint64_t>(racks);
  }
  return assignment;
}

struct BestAssignment {
  Probability safe_and_live;
  uint64_t index = 0;
  bool valid = false;
};

constexpr uint64_t kPlacementChunk = 64;

// Standard-quorum Raft report of one assignment: kAuto sends the count-only liveness
// predicate to the count DP over the FailureDomainModel's count law.
Result<ReliabilityReport> TryEvaluate(const std::vector<double>& node_base_probabilities,
                                      const std::vector<double>& rack_probabilities,
                                      const std::vector<int>& rack_of, const CancelToken* cancel) {
  CHECK_EQ(rack_of.size(), node_base_probabilities.size());
  const ReliabilityAnalyzer analyzer(std::make_unique<FailureDomainModel>(
      node_base_probabilities, rack_of, rack_probabilities));
  return TryAnalyzeRaft(RaftConfig::Standard(static_cast<int>(rack_of.size())), analyzer,
                        AnalysisMethod::kAuto, cancel);
}

}  // namespace

Status ValidateRackPlacement(const std::vector<double>& node_base_probabilities,
                             const std::vector<double>& rack_probabilities) {
  const int n = static_cast<int>(node_base_probabilities.size());
  const int racks = static_cast<int>(rack_probabilities.size());
  if (n < 1 || n > kMaxPlacementNodes || racks < 1 || racks > kMaxPlacementRacks) {
    return InvalidArgumentError("placement search requires 1 to " +
                                std::to_string(kMaxPlacementNodes) + " nodes and 1 to " +
                                std::to_string(kMaxPlacementRacks) + " racks");
  }
  const auto in_unit_interval = [](double p) { return p >= 0.0 && p <= 1.0; };  // NaN fails.
  if (!std::all_of(node_base_probabilities.begin(), node_base_probabilities.end(),
                   in_unit_interval) ||
      !std::all_of(rack_probabilities.begin(), rack_probabilities.end(), in_unit_interval)) {
    return InvalidArgumentError("placement probabilities must lie in [0, 1]");
  }
  return Status::Ok();
}

Probability EvaluateRackPlacement(const std::vector<double>& node_base_probabilities,
                                  const std::vector<double>& rack_probabilities,
                                  const std::vector<int>& rack_of) {
  // Without a token the evaluation cannot fail; Result's accessor CHECKs that it did not.
  return TryEvaluate(node_base_probabilities, rack_probabilities, rack_of, nullptr)
      ->safe_and_live;
}

Result<PlacementResult> TryOptimizeRackPlacement(
    const std::vector<double>& node_base_probabilities,
    const std::vector<double>& rack_probabilities, const CancelToken* cancel,
    std::atomic<uint64_t>* progress) {
  const Status valid = ValidateRackPlacement(node_base_probabilities, rack_probabilities);
  CHECK(valid.ok()) << valid.ToString();
  const int n = static_cast<int>(node_base_probabilities.size());
  const int racks = static_cast<int>(rack_probabilities.size());
  uint64_t total = 1;
  for (int i = 0; i < n; ++i) {
    total *= static_cast<uint64_t>(racks);
  }
  // Chunked argmax over the r^n assignment space. Per-chunk winners keep the earliest
  // index among equals (strict > to replace), and chunks merge in ascending order with a
  // strict < comparison, so of bitwise-equal results the lowest assignment index wins —
  // exactly the assignment the sequential odometer found first. Assignments that tie only
  // in exact arithmetic compare by their rounded results. Each evaluation polls `cancel`
  // before it starts, and a cancelled assignment ends the chunk, whose partial winner
  // ParallelReduce then discards; the chunk's StridePoll counts evaluated assignments.
  const Result<BestAssignment> best = ParallelReduce<BestAssignment>(
      0, total, kPlacementChunk, BestAssignment{},
      [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t /*chunk_index*/) {
        BestAssignment chunk_best;
        StridePoll poll(cancel, progress);
        for (uint64_t index = chunk_begin; index < chunk_end; ++index) {
          const Result<ReliabilityReport> candidate =
              TryEvaluate(node_base_probabilities, rack_probabilities,
                          DecodeAssignment(index, n, racks), cancel);
          if (!candidate.ok()) break;
          if (!chunk_best.valid || chunk_best.safe_and_live < candidate->safe_and_live) {
            chunk_best.safe_and_live = candidate->safe_and_live;
            chunk_best.index = index;
            chunk_best.valid = true;
          }
          if (!poll.Tick()) break;
        }
        return chunk_best;
      },
      [](BestAssignment& acc, BestAssignment&& partial) {
        if (partial.valid && (!acc.valid || acc.safe_and_live < partial.safe_and_live)) {
          acc = partial;
        }
      },
      nullptr, cancel);
  if (!best.ok()) return best.status();
  CHECK(best->valid);
  PlacementResult result;
  result.rack_of = DecodeAssignment(best->index, n, racks);
  result.safe_and_live = best->safe_and_live;
  return result;
}

PlacementResult OptimizeRackPlacement(const std::vector<double>& node_base_probabilities,
                                      const std::vector<double>& rack_probabilities) {
  Result<PlacementResult> result =
      TryOptimizeRackPlacement(node_base_probabilities, rack_probabilities);
  CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

}  // namespace probcon
