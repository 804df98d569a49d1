// Joint failure models over a cluster for one analysis window (paper §2, "faults are
// correlated").
//
// A JointFailureModel describes the joint law of which nodes fail during a window. The
// independent model is what §3 of the paper analyzes; the correlated models capture the three
// correlation mechanisms §2 catalogs: platform-wide events (software rollouts, TEE
// vulnerabilities) as common-cause shocks, physical co-location (racks sharing vibration,
// temperature, power) as failure domains, and cluster-wide environmental drift as an
// exchangeable beta-binomial prior.
//
// Configurations are bitmasks: bit i set means node i failed during the window, so a model
// covers at most kMaxConfigurationNodes nodes.
// Models expose exact per-configuration probabilities where tractable, so they compose with
// the exact enumeration analyzer as well as the Monte Carlo one.

#ifndef PROBCON_SRC_FAULTMODEL_JOINT_MODEL_H_
#define PROBCON_SRC_FAULTMODEL_JOINT_MODEL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace probcon {

using FailureConfiguration = uint64_t;

// The most nodes a joint model can describe: one bit of a FailureConfiguration per node.
// Every model CHECKs it, and the serve layer admits no larger cluster.
inline constexpr int kMaxConfigurationNodes = std::numeric_limits<FailureConfiguration>::digits;

inline int CountFailures(FailureConfiguration config) { return __builtin_popcountll(config); }
inline bool NodeFailed(FailureConfiguration config, int node) {
  return (config >> node) & 1u;
}

class JointFailureModel {
 public:
  virtual ~JointFailureModel() = default;

  virtual int n() const = 0;

  // Samples a failure configuration for one window.
  virtual FailureConfiguration Sample(Rng& rng) const = 0;

  // P(node fails during the window), marginally.
  virtual double MarginalFailureProbability(int node) const = 0;

  // Exact P(configuration == config), or nullopt when only sampling is tractable.
  virtual std::optional<double> ConfigurationProbability(FailureConfiguration config) const {
    (void)config;
    return std::nullopt;
  }

  virtual std::string Describe() const = 0;
  virtual std::unique_ptr<JointFailureModel> Clone() const = 0;
};

// Nodes fail independently with per-node probabilities (the paper's §3 model).
class IndependentFailureModel final : public JointFailureModel {
 public:
  explicit IndependentFailureModel(std::vector<double> probabilities);

  static IndependentFailureModel Uniform(int n, double p);

  int n() const override { return static_cast<int>(probabilities_.size()); }
  FailureConfiguration Sample(Rng& rng) const override;
  double MarginalFailureProbability(int node) const override;
  std::optional<double> ConfigurationProbability(FailureConfiguration config) const override;
  std::string Describe() const override;
  std::unique_ptr<JointFailureModel> Clone() const override;

  const std::vector<double>& probabilities() const { return probabilities_; }

 private:
  std::vector<double> probabilities_;
};

// Independent base failures plus a cluster-wide shock: with probability `shock_probability`
// a common-cause event occurs (rollout bug, platform CVE) and each node additionally fails
// with its `shock_hit_probability`. Exact probabilities available by conditioning on the
// shock.
class CommonCauseFailureModel final : public JointFailureModel {
 public:
  CommonCauseFailureModel(std::vector<double> base_probabilities, double shock_probability,
                          std::vector<double> shock_hit_probabilities);

  int n() const override { return static_cast<int>(base_probabilities_.size()); }
  FailureConfiguration Sample(Rng& rng) const override;
  double MarginalFailureProbability(int node) const override;
  std::optional<double> ConfigurationProbability(FailureConfiguration config) const override;
  std::string Describe() const override;
  std::unique_ptr<JointFailureModel> Clone() const override;

 private:
  std::vector<double> base_probabilities_;
  double shock_probability_;
  std::vector<double> shock_hit_probabilities_;
};

// Nodes live in failure domains (racks / power zones); a domain event fails every member.
// On top of that, nodes fail independently with their base probabilities.
class FailureDomainModel final : public JointFailureModel {
 public:
  // `domain_of[i]` is node i's domain id in [0, #domains); `domain_probabilities[d]` is the
  // probability that domain d suffers a domain-wide event in the window.
  FailureDomainModel(std::vector<double> base_probabilities, std::vector<int> domain_of,
                     std::vector<double> domain_probabilities);

  int n() const override { return static_cast<int>(base_probabilities_.size()); }
  FailureConfiguration Sample(Rng& rng) const override;
  double MarginalFailureProbability(int node) const override;
  // Exact by enumerating domain-event subsets; intended for #domains <= ~20.
  std::optional<double> ConfigurationProbability(FailureConfiguration config) const override;
  std::string Describe() const override;
  std::unique_ptr<JointFailureModel> Clone() const override;

  int domain_count() const { return static_cast<int>(domain_probabilities_.size()); }

 private:
  std::vector<double> base_probabilities_;
  std::vector<int> domain_of_;
  std::vector<double> domain_probabilities_;
};

// Exchangeable correlation: a window-wide failure level p is drawn from Beta(alpha, beta) and
// nodes then fail iid with probability p. Captures "good days / bad days" drift; the marginal
// is alpha/(alpha+beta) but failures are positively correlated.
class BetaBinomialFailureModel final : public JointFailureModel {
 public:
  BetaBinomialFailureModel(int n, double alpha, double beta);

  int n() const override { return n_; }
  FailureConfiguration Sample(Rng& rng) const override;
  double MarginalFailureProbability(int node) const override;
  std::optional<double> ConfigurationProbability(FailureConfiguration config) const override;
  std::string Describe() const override;
  std::unique_ptr<JointFailureModel> Clone() const override;

  // Pairwise correlation coefficient of failure indicators: 1/(alpha+beta+1).
  double PairwiseCorrelation() const { return 1.0 / (alpha_ + beta_ + 1.0); }

 private:
  int n_;
  double alpha_;
  double beta_;
};

// Gamma(shape, 1) sampler (Marsaglia-Tsang); exposed for reuse by telemetry generators.
double SampleGamma(Rng& rng, double shape);
// Beta(alpha, beta) sampler.
double SampleBeta(Rng& rng, double alpha, double beta);

}  // namespace probcon

#endif  // PROBCON_SRC_FAULTMODEL_JOINT_MODEL_H_
