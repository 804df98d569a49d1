// Continuous-time Markov chains — the modeling substrate the storage community uses for
// MTTF/MTTDL/MTBF (paper §2: "The storage community relies on Markov models of their system
// to quantify metrics like MTTF, MTBF, and MTTDL").
//
// States are dense integers. Transitions carry rates (per unit time). Provided solvers:
//   * TrySteadyState           pi Q = 0, sum(pi) = 1          (long-run state occupancy)
//   * TryMeanTimeToAbsorption  (-Q_TT) t = 1 on transient set (expected hitting time)
//   * TransientDistribution    e^{Qt} via uniformization      (probability at finite horizon)

#ifndef PROBCON_SRC_MARKOV_CTMC_H_
#define PROBCON_SRC_MARKOV_CTMC_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/linalg/matrix.h"

namespace probcon {

// Options shared by the cancellable Try* solvers. Serving contexts pass the request's
// CancelToken so an operator deadline can abandon a long solve at the next poll, and a
// progress cell wired to the daemon's serve.engine.ctmc_steps counter. The uniformization
// loop polls per Poisson term (each term is an O(m^2) matrix-vector product); the direct
// solvers poll once before factoring, which is enough because lifecycle callers cap state
// counts so a single factorization stays sub-second. Results are bit-identical with or
// without a token — cancellation only decides whether the work runs, never what it computes.
struct CtmcSolveOptions {
  const CancelToken* cancel = nullptr;
  // Accumulates solver steps: one per Poisson term (uniformization) or per factored system
  // (direct solves). Purely observational.
  std::atomic<uint64_t>* progress = nullptr;
};

// Uniformization runs at the largest exit rate times this slack, which keeps the DTMC
// strictly substochastic on the diagonal.
inline constexpr double kUniformizationSlack = 1.02;

// The most Poisson terms a uniformization with mean `poisson_mean` (uniformization rate
// times horizon) sums before its truncation error is below 1e-12. Edge callers bound a
// request's cost with the same expression the solver loops to.
inline double UniformizationTermBound(double poisson_mean) {
  return poisson_mean + 12.0 * std::sqrt(poisson_mean) + 50.0;
}

class Ctmc {
 public:
  explicit Ctmc(int state_count);

  int state_count() const { return state_count_; }

  // Adds a transition `from` -> `to` with the given rate (> 0). Accumulates if called twice
  // for the same pair.
  void AddTransition(int from, int to, double rate);

  // Generator matrix Q (off-diagonal rates, diagonal = -row sum).
  Matrix Generator() const;

  // The solvers are cancellable: identical math and bit-identical results while the token
  // stays unset, kCancelled once it fires.

  // Long-run occupancy distribution. Fails if the chain is reducible in a way that makes the
  // balance system singular (e.g. it has absorbing states).
  Result<Vector> TrySteadyState(const CtmcSolveOptions& options = {}) const;

  // Expected time to reach any state in `absorbing`, starting from `start`. States in
  // `absorbing` have their outgoing transitions ignored. Fails if absorption is not certain
  // from `start`.
  Result<double> TryMeanTimeToAbsorption(int start, const std::vector<int>& absorbing,
                                         const CtmcSolveOptions& options = {}) const;

  // Distribution at time `t` starting from `initial`, via uniformization with truncation
  // error below 1e-12. A chain with no transitions (or one whose reachable states all have
  // zero outgoing rate) has a degenerate uniformization rate; the distribution is then the
  // initial one and is returned unchanged rather than dividing by zero. Horizons whose
  // uniformization would need 1e9 Poisson terms or more answer kFailedPrecondition instead
  // of looping for hours. The plain form CHECKs the cancellable one.
  Result<Vector> TryTransientDistribution(const Vector& initial, double t,
                                          const CtmcSolveOptions& options) const;
  Vector TransientDistribution(const Vector& initial, double t) const;

 private:
  struct Transition {
    int from;
    int to;
    double rate;
  };

  // Marks the non-absorbing states reachable from `start` without passing through an
  // absorbing state.
  std::vector<bool> ReachableTransientStates(int start,
                                             const std::vector<bool>& is_absorbing) const;

  int state_count_;
  std::vector<Transition> transitions_;
};

}  // namespace probcon

#endif  // PROBCON_SRC_MARKOV_CTMC_H_
