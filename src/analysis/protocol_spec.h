// Protocol quorum configurations and the safety/liveness predicates of the paper's §3.2
// theorems.
//
// Both theorems are predicates on a *failure configuration*; because they only inspect the
// number of failed/Byzantine nodes, they admit the Poisson-binomial fast path in
// reliability.h. Quorum sizes are free parameters (Flexible-Paxos style) so the analysis can
// sweep them — the paper's central "expose the safety/liveness trade-off" knob.
//
// Note on Theorem 3.1 liveness condition (1): the paper text prints |Byz| <= |Q_vc_t| - |Q_vc|,
// which is negative for every configuration in Table 1. Re-deriving from Table 1 shows the
// intended condition is |Byz| <= |Q_vc| - |Q_vc_t|; with it every published cell reproduces
// exactly (verified in tests/analysis/protocol_spec_test.cc).

#ifndef PROBCON_SRC_ANALYSIS_PROTOCOL_SPEC_H_
#define PROBCON_SRC_ANALYSIS_PROTOCOL_SPEC_H_

#include <string>

namespace probcon {

// Raft with explicit persistence (log replication) and view-change (election) quorum sizes.
// Standard Raft uses majorities for both.
struct RaftConfig {
  int n = 0;
  int q_per = 0;  // |Q_per|: votes needed to commit a log entry.
  int q_vc = 0;   // |Q_vc|: votes needed to win an election.

  // Majority quorums: q_per = q_vc = floor(n/2) + 1.
  static RaftConfig Standard(int n);

  std::string Describe() const;
};

// The smallest cluster standard PBFT quorums are defined for: n = 3f + 1 with f = 1.
// PbftConfig::Standard CHECKs it; the serving edge rejects smaller PBFT requests with it.
inline constexpr int kPbftMinNodes = 4;

// PBFT with explicit non-equivocation, persistence, view-change, and view-change-trigger
// quorum sizes. Standard PBFT with f = floor((n-1)/3) uses q = ceil((n+f+1)/2) for the first
// three and f+1 for the trigger.
struct PbftConfig {
  int n = 0;
  int q_eq = 0;    // |Q_eq|: prepare quorum (non-equivocation).
  int q_per = 0;   // |Q_per|: commit quorum (persistence).
  int q_vc = 0;    // |Q_vc|: new-view quorum.
  int q_vc_t = 0;  // |Q_vc_t|: view-change trigger quorum.

  static PbftConfig Standard(int n);

  std::string Describe() const;
};

// --- Theorem 3.2 (Raft) -----------------------------------------------------

// Safety is structural in CFT: it depends only on quorum sizes, not on which nodes crashed.
// Conditions: n < q_per + q_vc (persistence across views) and n < 2*q_vc (unique leader).
bool RaftIsSafeStructurally(const RaftConfig& config);

// Live iff enough correct nodes remain to form both quorums.
bool RaftIsLive(const RaftConfig& config, int correct_count);

// --- Theorem 3.1 (PBFT) -----------------------------------------------------

// Safe iff |Byz| < 2*q_eq - n (non-equivocation quorums intersect in a correct node) and
// |Byz| < q_per + q_vc - n (committed operations survive view changes).
bool PbftIsSafe(const PbftConfig& config, int byzantine_count);

// Live iff (1) |Byz| <= q_vc - q_vc_t [corrected, see header comment], (2) enough correct
// nodes remain for every quorum, and (3) |Byz| < q_vc_t (Byzantine nodes alone cannot trigger
// spurious view changes).
bool PbftIsLive(const PbftConfig& config, int byzantine_count);

}  // namespace probcon

#endif  // PROBCON_SRC_ANALYSIS_PROTOCOL_SPEC_H_
