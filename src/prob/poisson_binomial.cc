#include "src/prob/poisson_binomial.h"

#include <cmath>

#include "src/common/check.h"
#include "src/prob/kahan.h"

namespace probcon {

PoissonBinomial::PoissonBinomial(std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {
  for (const double p : probabilities_) {
    CHECK(p >= 0.0 && p <= 1.0) << "node failure probability out of range:" << p;
  }
  pmf_ = PoissonBinomialPmf(probabilities_);
}

std::vector<double> PoissonBinomialPmf(const std::vector<double>& probabilities) {
  std::vector<double> pmf(probabilities.size() + 1, 0.0);
  pmf[0] = 1.0;
  int counted = 0;
  for (const double p : probabilities) {
    AddNodeToCountLaw(pmf, counted++, p);
  }
  return pmf;
}

void AddNodeToCountLaw(std::vector<double>& pmf, int counted, double p) {
  for (int k = counted + 1; k >= 1; --k) {
    pmf[k] = pmf[k] * (1.0 - p) + pmf[k - 1] * p;
  }
  pmf[0] *= (1.0 - p);
}

double PoissonBinomial::Pmf(int k) const {
  if (k < 0 || k > n()) {
    return 0.0;
  }
  return pmf_[k];
}

Probability PoissonBinomial::CdfLe(int k) const {
  if (k < 0) {
    return Probability::Zero();
  }
  if (k >= n()) {
    return Probability::One();
  }
  // Sum whichever side holds less mass; the DP keeps small far-tail terms to full relative
  // precision because they are formed purely from products of small numbers.
  const double mean = Mean();
  if (static_cast<double>(k) < mean) {
    KahanSum low;
    for (int i = 0; i <= k; ++i) {
      low.Add(pmf_[i]);
    }
    return Probability::FromProbability(low.Total());
  }
  KahanSum high;
  for (int i = k + 1; i <= n(); ++i) {
    high.Add(pmf_[i]);
  }
  return Probability::FromComplement(high.Total());
}

Probability PoissonBinomial::TailGe(int k) const { return CdfLe(k - 1).Not(); }

double PoissonBinomial::Mean() const {
  KahanSum sum;
  for (const double p : probabilities_) {
    sum.Add(p);
  }
  return sum.Total();
}

double PoissonBinomial::Variance() const {
  KahanSum sum;
  for (const double p : probabilities_) {
    sum.Add(p * (1.0 - p));
  }
  return sum.Total();
}

}  // namespace probcon
