#include "src/markov/repair_model.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/prob/kahan.h"

namespace probcon {

ConsensusRepairModel::ConsensusRepairModel(const RepairModelParams& params) : params_(params) {
  CHECK_GT(params.n, 0);
  CHECK_GT(params.failure_rate, 0.0);
  CHECK_GE(params.repair_rate, 0.0);
  CHECK_GE(params.repair_servers, 1);
}

Ctmc ConsensusRepairModel::BuildChain(int absorb_at) const {
  Ctmc chain(params_.n + 1);
  for (int k = 0; k <= params_.n; ++k) {
    if (k == absorb_at) {
      continue;  // Absorbing: no outgoing transitions.
    }
    if (k < params_.n) {
      chain.AddTransition(k, k + 1, static_cast<double>(params_.n - k) * params_.failure_rate);
    }
    if (k > 0 && params_.repair_rate > 0.0) {
      const int busy = std::min(k, params_.repair_servers);
      chain.AddTransition(k, k - 1, static_cast<double>(busy) * params_.repair_rate);
    }
  }
  return chain;
}

Result<double> ConsensusRepairModel::MeanTimeToUnavailability(int quorum_size) const {
  CHECK(quorum_size >= 1 && quorum_size <= params_.n);
  // Outage when alive < quorum_size, i.e. failed > n - quorum_size; first entry is at
  // failed == n - quorum_size + 1.
  const int outage = params_.n - quorum_size + 1;
  return MeanTimeToQuorumLoss(outage);
}

Result<double> ConsensusRepairModel::MeanTimeToQuorumLoss(int loss_threshold) const {
  CHECK(loss_threshold >= 1 && loss_threshold <= params_.n);
  const Ctmc chain = BuildChain(loss_threshold);
  return chain.TryMeanTimeToAbsorption(0, {loss_threshold});
}

Result<Probability> ConsensusRepairModel::SteadyStateAvailability(int quorum_size) const {
  CHECK(quorum_size >= 1 && quorum_size <= params_.n);
  if (params_.repair_rate == 0.0) {
    // Without repair the chain drifts to all-failed; availability is 0 in the long run.
    return Probability::Zero();
  }
  const Ctmc chain = BuildChain(/*absorb_at=*/-1);
  auto steady = chain.TrySteadyState();
  if (!steady.ok()) {
    return steady.status();
  }
  // P(failed > n - quorum_size) is the small side; accumulate it.
  KahanSum down_mass;
  for (int k = params_.n - quorum_size + 1; k <= params_.n; ++k) {
    down_mass.Add((*steady)[k]);
  }
  return Probability::FromComplement(std::max(0.0, down_mass.Total()));
}

Probability ConsensusRepairModel::UnavailabilityWithin(int quorum_size, double t) const {
  CHECK(quorum_size >= 1 && quorum_size <= params_.n);
  const int outage = params_.n - quorum_size + 1;
  const Ctmc chain = BuildChain(outage);
  Vector initial(static_cast<size_t>(params_.n) + 1, 0.0);
  initial[0] = 1.0;
  const Vector at_t = chain.TransientDistribution(initial, t);
  return Probability::FromProbability(std::min(1.0, std::max(0.0, at_t[outage])));
}

}  // namespace probcon
