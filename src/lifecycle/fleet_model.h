// Fleet-lifecycle availability models: the paper's "reason about consensus like the storage
// community reasons about RAID" argument, executed. A deployment is a *repairable fleet* of
// heterogeneous vintages — each vintage with its own failure rate, possibly drawn from a
// fault curve at the vintage's current age — and the questions that matter are mission-time
// reliability, steady-state availability, MTTU/MTTQL, and expected downtime per year, for
// Raft and PBFT quorum rules, including during reconfiguration windows when liveness needs a
// quorum in BOTH the old and the new membership.
//
// State space. Nodes within a vintage class are exchangeable (same rate, same membership
// flags), so the per-node chain lumps to per-class failed counts: a fleet with classes of
// sizes n_1..n_C has states (k_1..k_C), k_c in [0, n_c] — prod(n_c + 1) states instead of
// 2^N. Failures arrive per class at (n_c - k_c) * lambda_c. Repairs come from a shared pool
// of `repair_servers` technicians, each completing at rate mu; with K = sum(k_c) failed, the
// pool runs min(K, S) concurrent repairs allocated proportionally to per-class backlogs
// (rate toward class c: min(K, S) * mu * k_c / K). When S >= total nodes this degenerates to
// independent per-node repair at k_c * mu, which is how the homogeneous single-class model
// reduces exactly to ConsensusRepairModel with repair_servers = n.
//
// Lumping assumption. A class's failure law is exponential with the hazard frozen at the
// class's current age (FleetClass::FromCurve evaluates h(age) once). That is the same
// quasi-static approximation the storage MTTDL literature makes; callers tracking aging over
// long horizons should re-solve with refreshed rates (the serving layer's repair_sweep and
// availability queries are cheap enough to re-issue) or use RoundSchedule for the
// fully time-varying treatment.
//
// All solvers are cancellable (CtmcSolveOptions) so the serving daemon's deadline watchdog
// can abandon a solve mid-uniformization.

#ifndef PROBCON_SRC_LIFECYCLE_FLEET_MODEL_H_
#define PROBCON_SRC_LIFECYCLE_FLEET_MODEL_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/faultmodel/fault_curve.h"
#include "src/markov/ctmc.h"
#include "src/prob/probability.h"

namespace probcon {

// Which protocol's liveness predicate decides "the fleet is up". Quorum sizes are the
// standard ones, derived from the membership size under evaluation (majorities for Raft;
// n = 3f+1 quorums for PBFT with crashed nodes conservatively counted as faulty).
enum class FleetProtocol {
  kRaft,
  kPbft,
};

// One exchangeable vintage class.
struct FleetClass {
  int count = 0;             // Nodes in the class (>= 1).
  double failure_rate = 0.0; // Per-node lambda (per hour, > 0).
  // Membership flags for reconfiguration analysis: a joint-consensus window needs quorums
  // in both the old membership (classes with in_old) and the new one (in_new). Outside
  // reconfiguration only in_old matters. A class being repaired out still fails and ties up
  // repair capacity, which is exactly why reconfiguration windows are availability-critical.
  bool in_old = true;
  bool in_new = true;

  // Lumps a fault curve into a class rate by freezing the hazard at the vintage's age.
  static FleetClass FromCurve(const FaultCurve& curve, double age, int count);
};

struct FleetParams {
  std::vector<FleetClass> classes;
  double repair_rate = 0.0;  // Per-technician mu (per hour); 0 disables repair.
  int repair_servers = 1;    // Size of the shared repair pool (>= 1).
};

// Hard cap on the lumped state count (memory: the dense generator is m^2 doubles; time: the
// direct solves are O(m^3)). The serving layer enforces a tighter per-request cap.
inline constexpr int kMaxFleetStates = 4096;

class FleetModel {
 public:
  // CHECK-fails on structurally invalid params (empty classes, non-positive counts/rates,
  // state count above kMaxFleetStates). Edge callers validate first via Validate().
  FleetModel(FleetParams params, FleetProtocol protocol);

  // Status-returning validation for untrusted inputs (the serving edge), covering the same
  // conditions the constructor CHECKs plus an optional tighter state cap. Under PBFT each
  // non-empty membership (old, and new for reconfiguration) needs kPbftMinNodes nodes.
  static Status Validate(const FleetParams& params, FleetProtocol protocol,
                         int max_states = kMaxFleetStates);

  const FleetParams& params() const { return params_; }
  FleetProtocol protocol() const { return protocol_; }
  int state_count() const { return state_count_; }
  int total_nodes() const { return total_nodes_; }

  // Liveness of a per-class failed-count vector under the current membership, and under a
  // joint-consensus reconfiguration window (quorums in old AND new membership).
  bool IsLive(const std::vector<int>& failed) const;
  bool IsLiveDuringReconfiguration(const std::vector<int>& failed) const;

  // Long-run P(live) of the always-repairing chain. Zero when repair is disabled (every
  // trajectory eventually drains past the quorum with no way back up at the boundary — the
  // same convention as ConsensusRepairModel). `reconfiguration` selects the joint predicate.
  Result<Probability> TrySteadyStateAvailability(bool reconfiguration,
                                                 const CtmcSolveOptions& options) const;

  // Expected hours, from all-up, until the fleet first goes non-live (MTTU).
  Result<double> TryMeanTimeToUnavailability(bool reconfiguration,
                                             const CtmcSolveOptions& options) const;

  // Expected hours, from all-up, until `loss_threshold` nodes are simultaneously failed
  // fleet-wide (the count-level data-loss proxy, MTTQL).
  Result<double> TryMeanTimeToQuorumLoss(int loss_threshold,
                                         const CtmcSolveOptions& options) const;

  // P(no liveness outage within the mission), treating the first outage as absorbing:
  // the mission-time reliability figure. Complement-exact in the outage mass.
  Result<Probability> TryMissionReliability(double mission_hours, bool reconfiguration,
                                            const CtmcSolveOptions& options) const;

  // Convenience: complement of steady-state availability scaled to hours per year.
  static double DowntimeHoursPerYear(const Probability& availability);

 private:
  // Dense mixed-radix state index: index = sum_c k_c * stride_c.
  int EncodeState(const std::vector<int>& failed) const;
  std::vector<int> DecodeState(int index) const;

  // Full chain with repair everywhere. States for which `absorbing` (when non-null, indexed
  // by state) is true get no outgoing transitions.
  Ctmc BuildChain(const std::vector<bool>* absorbing) const;

  // States failing the selected liveness predicate.
  std::vector<bool> OutageStates(bool reconfiguration) const;

  bool IsLiveForMembership(const std::vector<int>& failed, bool use_new_membership) const;

  FleetParams params_;
  FleetProtocol protocol_;
  int state_count_ = 0;
  int total_nodes_ = 0;
  std::vector<int> strides_;
};

}  // namespace probcon

#endif  // PROBCON_SRC_LIFECYCLE_FLEET_MODEL_H_
