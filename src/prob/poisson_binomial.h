// Poisson-binomial distribution: the failure-count law of a cluster whose nodes fail
// independently with *heterogeneous* probabilities p_1..p_N.
//
// This is the paper's central generalization: once per-node fault curves replace the uniform
// f-threshold assumption, the number of failed nodes follows a Poisson-binomial. Both
// Theorems 3.1 and 3.2 are predicates on the failure count alone, so evaluating a cluster
// reduces to tail sums of this distribution — O(N^2) instead of 2^N enumeration.

#ifndef PROBCON_SRC_PROB_POISSON_BINOMIAL_H_
#define PROBCON_SRC_PROB_POISSON_BINOMIAL_H_

#include <vector>

#include "src/prob/probability.h"

namespace probcon {

class PoissonBinomial {
 public:
  // `probabilities[i]` is node i's failure probability; all must lie in [0, 1].
  explicit PoissonBinomial(std::vector<double> probabilities);

  int n() const { return static_cast<int>(probabilities_.size()); }

  // P(X == k). Zero outside [0, n].
  double Pmf(int k) const;

  // P(X <= k), complement-tracked.
  Probability CdfLe(int k) const;

  // P(X >= k), complement-tracked.
  Probability TailGe(int k) const;

  double Mean() const;
  double Variance() const;

  const std::vector<double>& probabilities() const { return probabilities_; }
  const std::vector<double>& pmf() const { return pmf_; }

 private:
  std::vector<double> probabilities_;
  std::vector<double> pmf_;  // pmf_[k] = P(X == k), k in [0, n].
};

// The law's pmf, entry k = P(X == k) for k in [0, n], by the convolution DP below.
std::vector<double> PoissonBinomialPmf(const std::vector<double>& probabilities);

// The DP's step: folds one more node, failing with probability `p`, into `pmf`, the law of
// the `counted` nodes folded so far (`pmf` holds at least counted + 2 entries):
//   pmf'[k] = pmf[k] * (1-p) + pmf[k-1] * p,  k in [0, counted + 1].
void AddNodeToCountLaw(std::vector<double>& pmf, int counted, double p);

}  // namespace probcon

#endif  // PROBCON_SRC_PROB_POISSON_BINOMIAL_H_
