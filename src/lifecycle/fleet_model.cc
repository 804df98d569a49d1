#include "src/lifecycle/fleet_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

#include "src/analysis/protocol_spec.h"
#include "src/common/check.h"
#include "src/faultmodel/afr.h"

namespace probcon {

FleetClass FleetClass::FromCurve(const FaultCurve& curve, double age, int count) {
  CHECK_GE(age, 0.0);
  FleetClass cls;
  cls.count = count;
  cls.failure_rate = curve.HazardRate(age);
  return cls;
}

Status FleetModel::Validate(const FleetParams& params, FleetProtocol protocol,
                            int max_states) {
  if (params.classes.empty()) {
    return InvalidArgumentError("fleet needs at least one class");
  }
  int old_nodes = 0;
  int new_nodes = 0;
  int64_t states = 1;
  for (size_t c = 0; c < params.classes.size(); ++c) {
    const FleetClass& cls = params.classes[c];
    if (cls.count < 1) {
      std::ostringstream os;
      os << "class " << c << " count " << cls.count << " must be >= 1";
      return InvalidArgumentError(os.str());
    }
    if (!(cls.failure_rate > 0.0) || !std::isfinite(cls.failure_rate)) {
      std::ostringstream os;
      os << "class " << c << " failure_rate must be positive and finite";
      return InvalidArgumentError(os.str());
    }
    old_nodes += cls.in_old ? cls.count : 0;
    new_nodes += cls.in_new ? cls.count : 0;
    states *= cls.count + 1;
    if (states > max_states) {
      std::ostringstream os;
      os << "lumped state count exceeds " << max_states
         << " (shrink class sizes or merge vintages)";
      return InvalidArgumentError(os.str());
    }
  }
  if (old_nodes == 0) {
    return InvalidArgumentError("no class is in the current (old) membership");
  }
  if (protocol == FleetProtocol::kPbft &&
      (old_nodes < kPbftMinNodes || (new_nodes > 0 && new_nodes < kPbftMinNodes))) {
    std::ostringstream os;
    os << "a pbft fleet needs at least " << kPbftMinNodes << " nodes in each membership"
       << " (old " << old_nodes << ", new " << new_nodes << ")";
    return InvalidArgumentError(os.str());
  }
  if (!(params.repair_rate >= 0.0) || !std::isfinite(params.repair_rate)) {
    return InvalidArgumentError("repair_rate must be >= 0 and finite");
  }
  if (params.repair_servers < 1) {
    return InvalidArgumentError("repair_servers must be >= 1");
  }
  return Status::Ok();
}

FleetModel::FleetModel(FleetParams params, FleetProtocol protocol)
    : params_(std::move(params)), protocol_(protocol) {
  const Status valid = Validate(params_, protocol_);
  CHECK(valid.ok()) << valid.ToString();
  strides_.reserve(params_.classes.size());
  int stride = 1;
  for (const FleetClass& cls : params_.classes) {
    strides_.push_back(stride);
    stride *= cls.count + 1;
    total_nodes_ += cls.count;
  }
  state_count_ = stride;
}

int FleetModel::EncodeState(const std::vector<int>& failed) const {
  CHECK_EQ(failed.size(), params_.classes.size());
  int index = 0;
  for (size_t c = 0; c < failed.size(); ++c) {
    CHECK(failed[c] >= 0 && failed[c] <= params_.classes[c].count);
    index += failed[c] * strides_[c];
  }
  return index;
}

std::vector<int> FleetModel::DecodeState(int index) const {
  CHECK(index >= 0 && index < state_count_);
  std::vector<int> failed(params_.classes.size(), 0);
  for (size_t c = 0; c < params_.classes.size(); ++c) {
    failed[c] = (index / strides_[c]) % (params_.classes[c].count + 1);
  }
  return failed;
}

bool FleetModel::IsLiveForMembership(const std::vector<int>& failed,
                                     bool use_new_membership) const {
  int member_total = 0;
  int member_failed = 0;
  for (size_t c = 0; c < params_.classes.size(); ++c) {
    const FleetClass& cls = params_.classes[c];
    const bool member = use_new_membership ? cls.in_new : cls.in_old;
    if (!member) {
      continue;
    }
    member_total += cls.count;
    member_failed += failed[c];
  }
  if (member_total == 0) {
    return false;  // An empty membership can never form a quorum.
  }
  switch (protocol_) {
    case FleetProtocol::kRaft:
      return RaftIsLive(RaftConfig::Standard(member_total), member_total - member_failed);
    case FleetProtocol::kPbft:
      // Crashed nodes are conservatively counted toward the Byzantine budget (the paper's
      // §3 convention: the analysis cannot tell a crash from a corruption).
      return PbftIsLive(PbftConfig::Standard(member_total), member_failed);
  }
  return false;
}

bool FleetModel::IsLive(const std::vector<int>& failed) const {
  return IsLiveForMembership(failed, /*use_new_membership=*/false);
}

bool FleetModel::IsLiveDuringReconfiguration(const std::vector<int>& failed) const {
  // Joint consensus: commit/elect requires a quorum in BOTH memberships.
  return IsLiveForMembership(failed, /*use_new_membership=*/false) &&
         IsLiveForMembership(failed, /*use_new_membership=*/true);
}

std::vector<bool> FleetModel::OutageStates(bool reconfiguration) const {
  std::vector<bool> outage(static_cast<size_t>(state_count_), false);
  for (int s = 0; s < state_count_; ++s) {
    const std::vector<int> failed = DecodeState(s);
    outage[static_cast<size_t>(s)] =
        reconfiguration ? !IsLiveDuringReconfiguration(failed) : !IsLive(failed);
  }
  return outage;
}

Ctmc FleetModel::BuildChain(const std::vector<bool>* absorbing) const {
  Ctmc chain(state_count_);
  for (int s = 0; s < state_count_; ++s) {
    if (absorbing != nullptr && (*absorbing)[static_cast<size_t>(s)]) {
      continue;  // Absorbing states keep no outgoing transitions.
    }
    const std::vector<int> failed = DecodeState(s);
    int total_failed = 0;
    for (const int k : failed) {
      total_failed += k;
    }
    for (size_t c = 0; c < params_.classes.size(); ++c) {
      const FleetClass& cls = params_.classes[c];
      // Failure: one more of class c down.
      const int up = cls.count - failed[c];
      if (up > 0) {
        chain.AddTransition(s, s + strides_[c], up * cls.failure_rate);
      }
      // Repair: the shared pool runs min(K, S) technicians, allocated proportionally to
      // per-class backlogs, so the total repair rate matches the pool and the allocation
      // keeps the lumped chain Markov.
      if (params_.repair_rate > 0.0 && failed[c] > 0) {
        const int active = std::min(total_failed, params_.repair_servers);
        const double rate = active * params_.repair_rate *
                            (static_cast<double>(failed[c]) / total_failed);
        chain.AddTransition(s, s - strides_[c], rate);
      }
    }
  }
  return chain;
}

Result<Probability> FleetModel::TrySteadyStateAvailability(
    bool reconfiguration, const CtmcSolveOptions& options) const {
  if (params_.repair_rate == 0.0) {
    // Without repair every trajectory eventually drains below quorum and stays there: the
    // long-run live fraction is zero (same convention as ConsensusRepairModel).
    return Probability::Zero();
  }
  const Ctmc chain = BuildChain(nullptr);
  auto pi = chain.TrySteadyState(options);
  if (!pi.ok()) {
    return pi.status();
  }
  const std::vector<bool> outage = OutageStates(reconfiguration);
  // Accumulate the (small) outage mass so availability stays exact in its complement.
  double outage_mass = 0.0;
  for (int s = 0; s < state_count_; ++s) {
    if (outage[static_cast<size_t>(s)]) {
      outage_mass += (*pi)[static_cast<size_t>(s)];
    }
  }
  return Probability::FromComplement(std::min(1.0, outage_mass));
}

Result<double> FleetModel::TryMeanTimeToUnavailability(bool reconfiguration,
                                                       const CtmcSolveOptions& options) const {
  const std::vector<bool> outage = OutageStates(reconfiguration);
  std::vector<int> absorbing;
  for (int s = 0; s < state_count_; ++s) {
    if (outage[static_cast<size_t>(s)]) {
      absorbing.push_back(s);
    }
  }
  if (absorbing.empty()) {
    return FailedPreconditionError("no outage state exists for this fleet");
  }
  const Ctmc chain = BuildChain(nullptr);
  return chain.TryMeanTimeToAbsorption(/*start=*/0, absorbing, options);
}

Result<double> FleetModel::TryMeanTimeToQuorumLoss(int loss_threshold,
                                                   const CtmcSolveOptions& options) const {
  CHECK(loss_threshold >= 1 && loss_threshold <= total_nodes_);
  std::vector<int> absorbing;
  for (int s = 0; s < state_count_; ++s) {
    const std::vector<int> failed = DecodeState(s);
    int total_failed = 0;
    for (const int k : failed) {
      total_failed += k;
    }
    if (total_failed >= loss_threshold) {
      absorbing.push_back(s);
    }
  }
  const Ctmc chain = BuildChain(nullptr);
  return chain.TryMeanTimeToAbsorption(/*start=*/0, absorbing, options);
}

Result<Probability> FleetModel::TryMissionReliability(double mission_hours,
                                                      bool reconfiguration,
                                                      const CtmcSolveOptions& options) const {
  CHECK_GE(mission_hours, 0.0);
  const std::vector<bool> outage = OutageStates(reconfiguration);
  if (outage[0]) {
    return Probability::Zero();  // Not even the all-up fleet is live.
  }
  const Ctmc chain = BuildChain(&outage);
  Vector initial(static_cast<size_t>(state_count_), 0.0);
  initial[0] = 1.0;
  auto distribution = chain.TryTransientDistribution(initial, mission_hours, options);
  if (!distribution.ok()) {
    return distribution.status();
  }
  double outage_mass = 0.0;
  for (int s = 0; s < state_count_; ++s) {
    if (outage[static_cast<size_t>(s)]) {
      outage_mass += (*distribution)[static_cast<size_t>(s)];
    }
  }
  return Probability::FromComplement(std::min(1.0, outage_mass));
}

double FleetModel::DowntimeHoursPerYear(const Probability& availability) {
  return availability.complement() * kHoursPerYear;
}

}  // namespace probcon
