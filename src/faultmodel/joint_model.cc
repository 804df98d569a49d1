#include "src/faultmodel/joint_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/prob/poisson_binomial.h"

namespace probcon {
namespace {

void CheckProbabilityVector(const std::vector<double>& probabilities) {
  const Status valid = IndependentFailureModel::Validate(probabilities);
  CHECK(valid.ok()) << valid.ToString();
}

}  // namespace

// ---------------------------------------------------------------------------
// IndependentFailureModel

Status IndependentFailureModel::Validate(const std::vector<double>& probabilities) {
  const auto in_unit_interval = [](double p) { return p >= 0.0 && p <= 1.0; };  // NaN fails.
  if (probabilities.empty() || probabilities.size() > size_t{kMaxConfigurationNodes} ||
      !std::all_of(probabilities.begin(), probabilities.end(), in_unit_interval)) {
    return InvalidArgumentError("a failure model takes 1 to " +
                                std::to_string(kMaxConfigurationNodes) +
                                " nodes, each failing with a probability in [0, 1]");
  }
  return Status::Ok();
}

IndependentFailureModel::IndependentFailureModel(std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {
  CheckProbabilityVector(probabilities_);
}

IndependentFailureModel IndependentFailureModel::Uniform(int n, double p) {
  CHECK_GT(n, 0);
  return IndependentFailureModel(std::vector<double>(static_cast<size_t>(n), p));
}

FailureConfiguration IndependentFailureModel::Sample(Rng& rng) const {
  FailureConfiguration config = 0;
  for (size_t i = 0; i < probabilities_.size(); ++i) {
    if (rng.NextBernoulli(probabilities_[i])) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double IndependentFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  return probabilities_[node];
}

std::optional<double> IndependentFailureModel::ConfigurationProbability(
    FailureConfiguration config) const {
  double prob = 1.0;
  for (int i = 0; i < n(); ++i) {
    prob *= NodeFailed(config, i) ? probabilities_[i] : (1.0 - probabilities_[i]);
  }
  return prob;
}

std::optional<std::vector<double>> IndependentFailureModel::CountLaw() const {
  return PoissonBinomialPmf(probabilities_);
}

std::string IndependentFailureModel::Describe() const {
  std::ostringstream os;
  os << "independent(n=" << n() << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> IndependentFailureModel::Clone() const {
  return std::make_unique<IndependentFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// CommonCauseFailureModel

CommonCauseFailureModel::CommonCauseFailureModel(std::vector<double> base_probabilities,
                                                 double shock_probability,
                                                 std::vector<double> shock_hit_probabilities)
    : base_probabilities_(std::move(base_probabilities)),
      shock_probability_(shock_probability),
      shock_hit_probabilities_(std::move(shock_hit_probabilities)) {
  CheckProbabilityVector(base_probabilities_);
  CheckProbabilityVector(shock_hit_probabilities_);
  CHECK_EQ(base_probabilities_.size(), shock_hit_probabilities_.size());
  CHECK(shock_probability >= 0.0 && shock_probability <= 1.0);
}

FailureConfiguration CommonCauseFailureModel::Sample(Rng& rng) const {
  const bool shock = rng.NextBernoulli(shock_probability_);
  FailureConfiguration config = 0;
  for (int i = 0; i < n(); ++i) {
    bool failed = rng.NextBernoulli(base_probabilities_[i]);
    if (shock && !failed) {
      failed = rng.NextBernoulli(shock_hit_probabilities_[i]);
    }
    if (failed) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double CommonCauseFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  const double base = base_probabilities_[node];
  const double with_shock = base + (1.0 - base) * shock_hit_probabilities_[node];
  return (1.0 - shock_probability_) * base + shock_probability_ * with_shock;
}

std::optional<double> CommonCauseFailureModel::ConfigurationProbability(
    FailureConfiguration config) const {
  // Condition on the shock indicator.
  double no_shock = 1.0;
  double with_shock = 1.0;
  for (int i = 0; i < n(); ++i) {
    const double base = base_probabilities_[i];
    const double combined = base + (1.0 - base) * shock_hit_probabilities_[i];
    if (NodeFailed(config, i)) {
      no_shock *= base;
      with_shock *= combined;
    } else {
      no_shock *= 1.0 - base;
      with_shock *= 1.0 - combined;
    }
  }
  return (1.0 - shock_probability_) * no_shock + shock_probability_ * with_shock;
}

std::string CommonCauseFailureModel::Describe() const {
  std::ostringstream os;
  os << "common_cause(n=" << n() << ", shock=" << shock_probability_ << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> CommonCauseFailureModel::Clone() const {
  return std::make_unique<CommonCauseFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// FailureDomainModel

FailureDomainModel::FailureDomainModel(std::vector<double> base_probabilities,
                                       std::vector<int> domain_of,
                                       std::vector<double> domain_probabilities)
    : base_probabilities_(std::move(base_probabilities)),
      domain_of_(std::move(domain_of)),
      domain_probabilities_(std::move(domain_probabilities)),
      domain_members_(domain_probabilities_.size(), 0) {
  CheckProbabilityVector(base_probabilities_);
  CHECK_EQ(domain_of_.size(), base_probabilities_.size());
  CHECK(!domain_probabilities_.empty());
  for (const double p : domain_probabilities_) {
    CHECK(p >= 0.0 && p <= 1.0);
  }
  for (int i = 0; i < n(); ++i) {
    const int d = domain_of_[i];
    CHECK(d >= 0 && d < domain_count()) << "domain id out of range:" << d;
    domain_members_[d] |= FailureConfiguration{1} << i;
  }
}

FailureConfiguration FailureDomainModel::Sample(Rng& rng) const {
  FailureConfiguration down = 0;
  for (int d = 0; d < domain_count(); ++d) {
    if (rng.NextBernoulli(domain_probabilities_[d])) {
      down |= domain_members_[d];
    }
  }
  FailureConfiguration config = down;
  for (int i = 0; i < n(); ++i) {
    if (!NodeFailed(down, i) && rng.NextBernoulli(base_probabilities_[i])) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double FailureDomainModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n());
  const double base = base_probabilities_[node];
  const double domain = domain_probabilities_[domain_of_[node]];
  return 1.0 - (1.0 - base) * (1.0 - domain);
}

std::optional<double> FailureDomainModel::ConfigurationProbability(
    FailureConfiguration config) const {
  // Without its event a domain's members fail as their base draws say; with it, all fail.
  double prob = 1.0;
  for (int d = 0; d < domain_count(); ++d) {
    const FailureConfiguration members = domain_members_[d];
    if (members == 0) continue;  // An empty domain's factor is (1 - q) + q.
    double base = 1.0;
    for (FailureConfiguration rest = members; rest != 0; rest &= rest - 1) {
      const int i = __builtin_ctzll(rest);
      base *= NodeFailed(config, i) ? base_probabilities_[i] : 1.0 - base_probabilities_[i];
    }
    const double q = domain_probabilities_[d];
    prob *= (1.0 - q) * base + ((config & members) == members ? q : 0.0);
  }
  return prob;
}

std::optional<std::vector<double>> FailureDomainModel::CountLaw() const {
  // Convolve domain by domain: fold in the members' base failures, then mix with the
  // domain's event, which moves the law as it stood before the domain up by its size.
  // Every entry stays a sum of products of non-negative terms, so both tails keep their
  // relative precision.
  std::vector<double> pmf(static_cast<size_t>(n()) + 1, 0.0);
  pmf[0] = 1.0;
  int counted = 0;
  for (int d = 0; d < domain_count(); ++d) {
    const FailureConfiguration members = domain_members_[d];
    if (members == 0) continue;
    const std::vector<double> before(pmf.begin(), pmf.begin() + counted + 1);
    for (FailureConfiguration rest = members; rest != 0; rest &= rest - 1) {
      AddNodeToCountLaw(pmf, counted++, base_probabilities_[__builtin_ctzll(rest)]);
    }
    const double q = domain_probabilities_[d];
    const int size = CountFailures(members);
    for (int k = 0; k <= counted; ++k) {
      pmf[k] = (1.0 - q) * pmf[k] + (k >= size ? q * before[k - size] : 0.0);
    }
  }
  return pmf;
}

std::string FailureDomainModel::Describe() const {
  std::ostringstream os;
  os << "failure_domains(n=" << n() << ", domains=" << domain_count() << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> FailureDomainModel::Clone() const {
  return std::make_unique<FailureDomainModel>(*this);
}

// ---------------------------------------------------------------------------
// BetaBinomialFailureModel

Status BetaBinomialFailureModel::Validate(int n, double alpha, double beta) {
  if (n < 1 || n > kMaxConfigurationNodes) {
    return InvalidArgumentError("beta_binomial model requires 1 <= n <= " +
                                std::to_string(kMaxConfigurationNodes));
  }
  if (!(alpha > 0.0) || !(beta > 0.0) || !std::isfinite(alpha) || !std::isfinite(beta)) {
    return InvalidArgumentError("beta_binomial model requires finite alpha > 0 and beta > 0");
  }
  return Status::Ok();
}

BetaBinomialFailureModel::BetaBinomialFailureModel(int n, double alpha, double beta)
    : n_(n), alpha_(alpha), beta_(beta) {
  const Status valid = Validate(n, alpha, beta);
  CHECK(valid.ok()) << valid.ToString();
}

FailureConfiguration BetaBinomialFailureModel::Sample(Rng& rng) const {
  const double p = SampleBeta(rng, alpha_, beta_);
  FailureConfiguration config = 0;
  for (int i = 0; i < n_; ++i) {
    if (rng.NextBernoulli(p)) {
      config |= FailureConfiguration{1} << i;
    }
  }
  return config;
}

double BetaBinomialFailureModel::MarginalFailureProbability(int node) const {
  CHECK(node >= 0 && node < n_);
  return alpha_ / (alpha_ + beta_);
}

std::optional<double> BetaBinomialFailureModel::ConfigurationProbability(
    FailureConfiguration config) const {
  // For k failures out of n: integral of p^k (1-p)^(n-k) over Beta(alpha, beta)
  //   = B(alpha + k, beta + n - k) / B(alpha, beta).
  const int k = CountFailures(config);
  const double log_prob = std::lgamma(alpha_ + k) + std::lgamma(beta_ + n_ - k) -
                          std::lgamma(alpha_ + beta_ + n_) - std::lgamma(alpha_) -
                          std::lgamma(beta_) + std::lgamma(alpha_ + beta_);
  return std::exp(log_prob);
}

std::string BetaBinomialFailureModel::Describe() const {
  std::ostringstream os;
  os << "beta_binomial(n=" << n_ << ", alpha=" << alpha_ << ", beta=" << beta_ << ")";
  return os.str();
}

std::unique_ptr<JointFailureModel> BetaBinomialFailureModel::Clone() const {
  return std::make_unique<BetaBinomialFailureModel>(*this);
}

// ---------------------------------------------------------------------------
// Samplers

double SampleGamma(Rng& rng, double shape) {
  CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = std::max(rng.NextDouble(), 1e-300);
    return SampleGamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x;
    double v;
    do {
      x = rng.NextNormal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double SampleBeta(Rng& rng, double alpha, double beta) {
  const double x = SampleGamma(rng, alpha);
  const double y = SampleGamma(rng, beta);
  return x / (x + y);
}

}  // namespace probcon
