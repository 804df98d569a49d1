// Typed request model of the probcon::serve protocol (wire format: docs/SERVING.md).
//
// A request names one of the toolkit's engines (`kind`) plus its parameters; parsing here
// does three jobs:
//
//   1. Validation — every engine precondition (n ranges, probability ranges, placement
//      search-space caps) is checked at the edge and surfaces as INVALID_ARGUMENT, so no
//      client input can reach a CHECK inside an engine.
//   2. Fault-curve resolution — parameters accept per-node probabilities directly OR a
//      fault-curve spec from src/faultmodel (constant / weibull / gompertz / bathtub plus
//      node ages and an analysis window), which is resolved to window failure
//      probabilities at parse time.
//   3. Canonicalization — CanonicalKey() serializes the *parsed* request with a fixed
//      field order, resolved defaults, and shortest-round-trip numbers. Semantically
//      identical requests (reordered fields, "0.01" vs "1e-2", an explicit default, a
//      curve spec vs its resolved probabilities) therefore map to the same memoization
//      cache entry.

#ifndef PROBCON_SRC_SERVE_SPEC_H_
#define PROBCON_SRC_SERVE_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/lifecycle/fleet_model.h"

namespace probcon::serve {

// Protocol version spoken by this build; bumped on incompatible envelope changes.
inline constexpr int kProtocolVersion = 1;

// Largest accepted deadline_ms (~31.7 years). Anything longer is indistinguishable from
// "no deadline" and the bound keeps deadline_ms * 1000 safely inside int64 microseconds,
// so the server's steady_clock arithmetic cannot overflow on attacker-chosen values.
inline constexpr double kMaxDeadlineMs = 1e12;

enum class RequestKind : int {
  kPing = 0,     // liveness / readiness probe; never cached, never queued
  kTable1,       // PBFT reliability report (paper Table 1 engine)
  kTable2,       // Raft reliability report (paper Table 2 engine)
  kQuorumSize,   // dynamic quorum sizing to reliability targets
  kPlacement,    // rack placement optimization
  kEndToEnd,     // availability / mission-durability derivation
  kMonteCarlo,   // Monte Carlo estimate with Wilson CI
  kStats,        // live metrics snapshot (obs registry); never cached, never queued
  kHealth,       // readiness / brownout state machine snapshot; never cached, never queued
  kAvailability,        // fleet-lifecycle steady-state availability / MTTU / MTTQL
  kMissionReliability,  // fleet CTMC mission reliability OR per-round schedule analysis
  kRepairSweep,         // repair-rate sweep ("how fast must repair be for five nines?")
};

inline constexpr int kRequestKindCount = 12;

std::string_view RequestKindName(RequestKind kind);
Result<RequestKind> RequestKindFromName(std::string_view name);

// Per-node failure probabilities for one analysis window, resolved from any of the
// accepted JSON spellings:
//
//   {"n": 5, "p": 0.01}                          uniform
//   {"probabilities": [0.01, 0.02, ...]}         explicit per node
//   {"n": 5, "curve": {...}, "age": a, "window": w}
//   {"ages": [...], "curve": {...}, "window": w} per-node ages
//
// Curve objects: {"kind": "constant", "rate": r} or {"kind": "constant",
// "window_probability": p, "window": w}; {"kind": "weibull", "shape": k, "scale": s};
// {"kind": "gompertz", "base_rate": b, "aging_rate": a}; {"kind": "bathtub",
// "infant_shape": ..., "infant_scale": ..., "useful_life_rate": ..., "wearout_shape": ...,
// "wearout_scale": ...}. With a curve, node i's probability is
// FailureProbability(age_i, age_i + window).
struct FaultSpec {
  std::vector<double> probabilities;

  int n() const { return static_cast<int>(probabilities.size()); }

  static FaultSpec Uniform(int n, double p);

  // Parses from `field` (an object). `json == nullptr` resolves to Uniform(default_n,
  // default_p) when default_n > 0, or an error naming the missing field otherwise. More
  // than kMaxConfigurationNodes nodes is an error.
  static Result<FaultSpec> FromJson(const Json* json, int default_n, double default_p);

  // {"probabilities": [...]} with shortest-round-trip numbers — the canonical form.
  Json ToCanonicalJson() const;
};

// One fully parsed, validated request. Fields are a union-by-convention: each kind reads
// its own subset (listed next to the member).
struct ServeRequest {
  RequestKind kind = RequestKind::kPing;

  FaultSpec fault;            // table1, table2, quorum_size, end_to_end, montecarlo
  std::string protocol;       // quorum_size, end_to_end, montecarlo: "raft" | "pbft"
  double target_live = 0.0;   // quorum_size
  double target_safe = 0.0;   // quorum_size (pbft)

  std::vector<double> node_probabilities;  // placement
  std::vector<double> rack_probabilities;  // placement

  double window_hours = 24.0;               // end_to_end
  double mttr_hours = 1.0;                  // end_to_end
  double data_loss_given_violation = 1.0;   // end_to_end
  double mission_hours = 8766.0;            // end_to_end

  bool beta_binomial = false;  // montecarlo: beta-binomial instead of independent model
  int beta_n = 0;              // montecarlo (beta_binomial)
  double alpha = 0.0;          // montecarlo (beta_binomial)
  double beta = 0.0;           // montecarlo (beta_binomial)
  uint64_t trials = 1'000'000;  // montecarlo
  uint64_t seed = 42;           // montecarlo

  bool stats_reset = false;  // stats: zero counters/histograms after the snapshot

  // Fleet-lifecycle kinds (availability, mission_reliability, repair_sweep). The fleet is
  // resolved at parse time: class specs may carry an explicit failure_rate or a fault curve
  // plus an age (lumped via FleetClass::FromCurve), and `protocol` selects the quorum rule.
  //
  //   "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}
  //                         | {"count": 2, "curve": {...}, "age": 8766,
  //                            "old": true, "new": false}, ...],
  //             "repair_rate": 0.5, "repair_servers": 2}
  FleetParams fleet;
  bool reconfiguration = false;  // availability, mission_reliability: joint-quorum window
  int loss_threshold = 0;        // availability: MTTQL threshold; 0 skips the metric

  // mission_reliability, schedule mode: "schedule" instead of "fleet"/"mission_hours" —
  // either explicit {"round_probabilities": [[..], ..], "round_hours": h} or a curve form
  // {"curve": {...}, "n": 4, "age": 0, "round_hours": 24, "rounds": 30}. The matrix is
  // resolved at parse time; `schedule_mode` records which mode the request took.
  bool schedule_mode = false;
  double round_hours = 0.0;
  std::vector<std::vector<double>> schedule_probabilities;

  // repair_sweep: explicit {"repair_rates": [..]} or a geometric grid {"min_rate": ..,
  // "max_rate": .., "points": ..}, resolved at parse time; optional availability target.
  std::vector<double> sweep_repair_rates;
  double sweep_target_availability = 0.0;  // 0 = no target requested

  // Server-internal brownout markers — never parsed from the wire and never part of
  // CanonicalParams/CanonicalKey: the server sets them on its own copy when it admits a
  // request into the degraded lane, and the engines honor them by capping trial counts.
  bool degraded = false;
  uint64_t degraded_trials = 0;  // Trial cap for degraded montecarlo runs.

  // Parses and validates the `params` object of a request envelope.
  static Result<ServeRequest> FromParams(RequestKind kind, const Json& params);

  // `protocol` as the lifecycle engines name it (availability, mission_reliability,
  // repair_sweep).
  FleetProtocol fleet_protocol() const {
    return protocol == "pbft" ? FleetProtocol::kPbft : FleetProtocol::kRaft;
  }

  // Canonical parameter object: fixed field order, resolved fault probabilities, defaults
  // materialized.
  Json CanonicalParams() const;

  // The memoization key: "<kind> <compact canonical params>".
  std::string CanonicalKey() const;
};

// Request envelope: {"v": 1, "id": <uint64>, "kind": "...", "deadline_ms": <double, opt>,
// "trace": <bool, opt>, "params": {...}}. `deadline_ms <= 0` means no deadline;
// `trace: true` asks the server to echo its per-stage span breakdown in the response.
struct RequestEnvelope {
  uint64_t id = 0;
  double deadline_ms = 0.0;
  bool trace = false;
  ServeRequest request;

  static Result<RequestEnvelope> Parse(std::string_view payload);

  // Client-side assembly (the raw `params` travel untouched; the server canonicalizes).
  static std::string Serialize(uint64_t id, std::string_view kind, const Json& params,
                               double deadline_ms, bool trace = false);
};

// Response envelope: {"v": 1, "id": ..., "status": "OK", "cached": bool, "result": {...},
// "trace": {...}} on success ("trace" only when the request asked for it);
// {"v": 1, "id": ..., "status": "<CODE>", "error": "..."} otherwise.
struct ResponseEnvelope {
  // The one writer of the response layout. `result_text` and `trace_text` are compact JSON
  // documents, spliced in as they are: the server passes the cached or engine text, so an
  // answer is never parsed back. An empty `trace_text` omits "trace"; an error status
  // writes only its escaped message and ignores the other arguments.
  static std::string Write(uint64_t id, const Status& status, bool cached, bool degraded,
                           std::string_view result_text, std::string_view trace_text);

  uint64_t id = 0;
  Status status;
  bool cached = false;
  // True when the server answered in brownout-degraded mode (reduced trial count or a
  // stale memo entry); serialized as `"degraded": true` between "cached" and "result" and
  // omitted entirely for normal answers, keeping them byte-identical to older builds.
  bool degraded = false;
  Json result;
  // Span breakdown (RequestTrace::ToJson shape) when the request carried `trace: true`;
  // kNull otherwise and then omitted from the wire.
  Json trace;

  static Result<ResponseEnvelope> Parse(std::string_view payload);
  std::string Serialize() const;
};

}  // namespace probcon::serve

#endif  // PROBCON_SRC_SERVE_SPEC_H_
