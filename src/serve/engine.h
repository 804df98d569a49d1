// The serve-side execution engine: maps one parsed ServeRequest onto the toolkit's
// analysis entry points and renders the answer as a JSON result object.
//
// This layer owns the "byte-identical to the offline tools" guarantee: table cells come
// from the same TryAnalyzeRaft/TryAnalyzePbft reports (reliability.h) and FormatPercent the
// regression-locked tables use, and numeric fields are serialized with the shared
// shortest-round-trip FormatDouble, so a served answer can be diffed against tool output
// directly.
//
// Everything here is synchronous and deterministic; the cancel token is the only channel
// by which the outside world (deadline watchdog, shutdown) can interrupt a computation.

#ifndef PROBCON_SRC_SERVE_ENGINE_H_
#define PROBCON_SRC_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>

#include "src/common/cancellation.h"
#include "src/common/json.h"
#include "src/common/status.h"
#include "src/serve/spec.h"

namespace probcon::serve {

// Optional progress cells the engines' StridePolls flush into (kCancellationPollStride), so
// a live request's advance is visible from outside — the server wires these to the
// serve.engine.mc_trials / serve.engine.enum_configs counters. Placement counts there too,
// one per evaluated rack assignment (each a count law, polled once), so a finished search
// adds r^n. Null cells disable the corresponding instrumentation; progress never feeds back
// into any computed value.
struct EngineProgress {
  std::atomic<uint64_t>* mc_trials = nullptr;     // Monte Carlo trials completed.
  std::atomic<uint64_t>* enum_configs = nullptr;  // enumerated configs, placement assignments.
  std::atomic<uint64_t>* ctmc_steps = nullptr;    // CTMC solver steps (terms / solves).
};

// Executes `request` to completion (or until `cancel` fires, returning kCancelled).
// INVALID_ARGUMENT never escapes here for a request that passed ServeRequest::FromParams;
// NOT_FOUND can (quorum sizing with unattainable targets).
Result<Json> ExecuteRequest(const ServeRequest& request, const CancelToken* cancel,
                            const EngineProgress& progress = {});

}  // namespace probcon::serve

#endif  // PROBCON_SRC_SERVE_ENGINE_H_
