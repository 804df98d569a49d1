#include "src/markov/ctmc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/check.h"

namespace probcon {

Ctmc::Ctmc(int state_count) : state_count_(state_count) {
  CHECK_GT(state_count, 0);
}

void Ctmc::AddTransition(int from, int to, double rate) {
  CHECK(from >= 0 && from < state_count_);
  CHECK(to >= 0 && to < state_count_);
  CHECK_NE(from, to);
  CHECK_GT(rate, 0.0);
  transitions_.push_back({from, to, rate});
}

Matrix Ctmc::Generator() const {
  Matrix q(state_count_, state_count_);
  for (const auto& t : transitions_) {
    q.At(t.from, t.to) += t.rate;
    q.At(t.from, t.from) -= t.rate;
  }
  return q;
}

Result<Vector> Ctmc::TrySteadyState(const CtmcSolveOptions& options) const {
  // Solve pi Q = 0 with normalization: replace the last column of Q^T's system with the
  // all-ones constraint.
  if (IsCancelled(options.cancel)) {
    return CancelledError("steady-state solve cancelled");
  }
  const Matrix q = Generator();
  Matrix a(state_count_, state_count_);
  Vector b(state_count_, 0.0);
  for (size_t r = 0; r < static_cast<size_t>(state_count_); ++r) {
    for (size_t c = 0; c < static_cast<size_t>(state_count_); ++c) {
      a.At(r, c) = q.At(c, r);  // Q^T pi = 0.
    }
  }
  // Overwrite the last balance equation with sum(pi) = 1.
  for (size_t c = 0; c < static_cast<size_t>(state_count_); ++c) {
    a.At(state_count_ - 1, c) = 1.0;
  }
  b[state_count_ - 1] = 1.0;

  auto solved = SolveLinearSystem(a, b);
  if (!solved.ok()) {
    return Status(StatusCode::kFailedPrecondition,
                  "steady state undefined (reducible or absorbing chain)");
  }
  for (double& x : *solved) {
    x = std::max(0.0, x);  // Clip tiny negative round-off.
  }
  if (options.progress != nullptr) {
    options.progress->fetch_add(1, std::memory_order_relaxed);
  }
  return solved;
}

std::vector<bool> Ctmc::ReachableTransientStates(int start,
                                                 const std::vector<bool>& is_absorbing) const {
  // BFS from `start` over non-absorbing states; unreachable transient states (e.g. failure
  // counts beyond an absorbing threshold) must not enter the linear system — they often have
  // no outgoing transitions and would make it singular.
  std::vector<bool> reachable(state_count_, false);
  std::vector<int> frontier;
  if (!is_absorbing[start]) {
    reachable[start] = true;
    frontier.push_back(start);
  }
  while (!frontier.empty()) {
    const int state = frontier.back();
    frontier.pop_back();
    for (const auto& t : transitions_) {
      if (t.from == state && !is_absorbing[t.to] && !reachable[t.to]) {
        reachable[t.to] = true;
        frontier.push_back(t.to);
      }
    }
  }
  return reachable;
}

Result<double> Ctmc::TryMeanTimeToAbsorption(int start, const std::vector<int>& absorbing,
                                             const CtmcSolveOptions& options) const {
  CHECK(start >= 0 && start < state_count_);
  if (IsCancelled(options.cancel)) {
    return CancelledError("mean-time-to-absorption solve cancelled");
  }
  std::vector<bool> is_absorbing(state_count_, false);
  for (const int s : absorbing) {
    CHECK(s >= 0 && s < state_count_);
    is_absorbing[s] = true;
  }
  if (is_absorbing[start]) {
    return 0.0;
  }
  // Index the transient states reachable from `start`.
  const std::vector<bool> reachable = ReachableTransientStates(start, is_absorbing);
  std::vector<int> transient_index(state_count_, -1);
  std::vector<int> transient_states;
  for (int s = 0; s < state_count_; ++s) {
    if (!is_absorbing[s] && reachable[s]) {
      transient_index[s] = static_cast<int>(transient_states.size());
      transient_states.push_back(s);
    }
  }
  const size_t m = transient_states.size();
  // Solve (-Q_TT) t = 1.
  Matrix a(m, m);
  for (const auto& t : transitions_) {
    if (is_absorbing[t.from] || !reachable[t.from]) {
      continue;
    }
    const int r = transient_index[t.from];
    a.At(r, r) += t.rate;
    if (!is_absorbing[t.to]) {
      a.At(r, transient_index[t.to]) -= t.rate;
    }
  }
  Vector ones(m, 1.0);
  auto solved = SolveLinearSystem(a, ones);
  if (!solved.ok()) {
    return Status(StatusCode::kFailedPrecondition,
                  "absorption is not certain from the start state");
  }
  if (options.progress != nullptr) {
    options.progress->fetch_add(1, std::memory_order_relaxed);
  }
  return (*solved)[transient_index[start]];
}

Vector Ctmc::TransientDistribution(const Vector& initial, double t) const {
  auto result = TryTransientDistribution(initial, t, {});
  CHECK(result.ok());
  return *std::move(result);
}

Result<Vector> Ctmc::TryTransientDistribution(const Vector& initial, double t,
                                              const CtmcSolveOptions& options) const {
  CHECK_EQ(initial.size(), static_cast<size_t>(state_count_));
  CHECK_GE(t, 0.0);
  const Matrix q = Generator();
  double uniform_rate = 0.0;
  for (int s = 0; s < state_count_; ++s) {
    uniform_rate = std::max(uniform_rate, -q.At(s, s));
  }
  // Degenerate uniformization rate: a chain with no transitions (or where every state's
  // outgoing rate is zero) never leaves its initial distribution. Return it unchanged —
  // the general path would divide by uniform_rate below.
  if (uniform_rate == 0.0 || t == 0.0) {
    return initial;
  }
  uniform_rate *= kUniformizationSlack;

  // P = I + Q / uniform_rate; distribution = sum_k Poisson(uniform_rate * t; k) * initial P^k.
  Matrix p = Matrix::Identity(state_count_) + q.Scaled(1.0 / uniform_rate);
  const double poisson_mean = uniform_rate * t;

  // Terms needed grows as Lambda*t + O(sqrt(Lambda*t)); beyond ~1e9 the solve would spin
  // for hours (and the old int cast of the bound overflowed). Refuse instead.
  constexpr double kMaxUniformizationTerms = 1e9;
  const double term_bound = UniformizationTermBound(poisson_mean);
  if (!(term_bound < kMaxUniformizationTerms)) {
    return Status(StatusCode::kFailedPrecondition,
                  "transient horizon too large for uniformization (rate * t over 1e9)");
  }

  Vector current = initial;  // initial * P^k, built incrementally (row vector convention).
  Vector result(state_count_, 0.0);
  // Poisson pmf computed iteratively in linear space with scaling guard.
  double log_pmf = -poisson_mean;  // log pmf at k = 0.
  double cumulative = 0.0;
  const int64_t max_terms = static_cast<int64_t>(term_bound);
  StridePoll terms(nullptr, options.progress);
  for (int64_t k = 0; k <= max_terms; ++k) {
    // Each term costs an O(m^2) matrix-vector product, so the token is polled every term.
    if (IsCancelled(options.cancel)) {
      return CancelledError("transient-distribution solve cancelled");
    }
    terms.Tick();
    const double pmf = std::exp(log_pmf);
    for (int s = 0; s < state_count_; ++s) {
      result[s] += pmf * current[s];
    }
    cumulative += pmf;
    if (cumulative > 1.0 - 1e-12) {
      break;
    }
    // Advance: current = current * P (row-vector times matrix).
    Vector next(state_count_, 0.0);
    for (int r = 0; r < state_count_; ++r) {
      const double value = current[r];
      if (value == 0.0) {
        continue;
      }
      for (int c = 0; c < state_count_; ++c) {
        next[c] += value * p.At(r, c);
      }
    }
    current = std::move(next);
    log_pmf += std::log(poisson_mean) - std::log(static_cast<double>(k) + 1.0);
  }
  // Renormalize the truncation remainder.
  double total = 0.0;
  for (const double x : result) {
    total += x;
  }
  if (total > 0.0) {
    for (double& x : result) {
      x /= total;
    }
  }
  return result;
}

}  // namespace probcon
