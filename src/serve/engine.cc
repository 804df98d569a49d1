#include "src/serve/engine.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/end_to_end.h"
#include "src/analysis/placement.h"
#include "src/analysis/reliability.h"
#include "src/analysis/round_analysis.h"
#include "src/faultmodel/joint_model.h"
#include "src/faultmodel/round_schedule.h"
#include "src/lifecycle/fleet_model.h"
#include "src/lifecycle/repair_sweep.h"
#include "src/markov/ctmc.h"
#include "src/prob/interval.h"
#include "src/prob/probability.h"
#include "src/probnative/quorum_sizer.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

// One table row as served: both the paper-formatted percent strings (byte-identical to the
// regression-locked tables) and the raw complements for programmatic clients.
Json ReportJson(const ReliabilityReport& report) {
  Json object = Json::Object();
  object.Set("safe", Json::String(FormatPercent(report.safe)));
  object.Set("live", Json::String(FormatPercent(report.live)));
  object.Set("safe_and_live", Json::String(FormatPercent(report.safe_and_live)));
  object.Set("unsafe_probability", Json::Number(report.safe.complement()));
  object.Set("not_live_probability", Json::Number(report.live.complement()));
  return object;
}

// The Theorem 3.1 (PBFT) or 3.2 (Raft) report of the request's fault spec under the standard
// quorums; table1, table2 and end_to_end all serve it.
Result<ReliabilityReport> StandardReport(bool pbft, const ServeRequest& request,
                                         const CancelToken* cancel,
                                         const EngineProgress& progress) {
  const ReliabilityAnalyzer analyzer =
      ReliabilityAnalyzer::ForIndependentNodes(request.fault.probabilities);
  const int n = request.fault.n();
  return pbft ? TryAnalyzePbft(PbftConfig::Standard(n), analyzer, AnalysisMethod::kAuto, cancel,
                               progress.enum_configs)
              : TryAnalyzeRaft(RaftConfig::Standard(n), analyzer, AnalysisMethod::kAuto, cancel,
                               progress.enum_configs);
}

// table1 (PBFT) and table2 (Raft): one report row.
Result<Json> RunTable(bool pbft, const ServeRequest& request, const CancelToken* cancel,
                      const EngineProgress& progress) {
  Result<ReliabilityReport> report = StandardReport(pbft, request, cancel, progress);
  if (!report.ok()) return report.status();
  const int n = request.fault.n();
  Json result = Json::Object();
  result.Set("protocol", Json::String(pbft ? "pbft" : "raft"));
  result.Set("n", Json::Number(n));
  result.Set("config", Json::String(pbft ? PbftConfig::Standard(n).Describe()
                                         : RaftConfig::Standard(n).Describe()));
  result.Set("report", ReportJson(*report));
  return result;
}

Result<Json> RunQuorumSize(const ServeRequest& request, const CancelToken* cancel) {
  if (IsCancelled(cancel)) {
    return CancelledError("quorum sizing cancelled before start");
  }
  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  if (request.protocol == "raft") {
    Result<SizedRaftConfig> sized = SizeRaftQuorums(
        request.fault.probabilities, Probability::FromProbability(request.target_live));
    if (!sized.ok()) return sized.status();
    Json config = Json::Object();
    config.Set("n", Json::Number(sized->config.n));
    config.Set("q_per", Json::Number(sized->config.q_per));
    config.Set("q_vc", Json::Number(sized->config.q_vc));
    result.Set("config", std::move(config));
    result.Set("live", Json::String(FormatPercent(sized->live)));
    result.Set("not_live_probability", Json::Number(sized->live.complement()));
    return result;
  }
  Result<SizedPbftConfig> sized = SizePbftQuorums(
      request.fault.probabilities, Probability::FromProbability(request.target_safe),
      Probability::FromProbability(request.target_live));
  if (!sized.ok()) return sized.status();
  Json config = Json::Object();
  config.Set("n", Json::Number(sized->config.n));
  config.Set("q_eq", Json::Number(sized->config.q_eq));
  config.Set("q_per", Json::Number(sized->config.q_per));
  config.Set("q_vc", Json::Number(sized->config.q_vc));
  config.Set("q_vc_t", Json::Number(sized->config.q_vc_t));
  result.Set("config", std::move(config));
  result.Set("safe", Json::String(FormatPercent(sized->safe)));
  result.Set("live", Json::String(FormatPercent(sized->live)));
  result.Set("unsafe_probability", Json::Number(sized->safe.complement()));
  result.Set("not_live_probability", Json::Number(sized->live.complement()));
  return result;
}

Result<Json> RunPlacement(const ServeRequest& request, const CancelToken* cancel,
                          const EngineProgress& progress) {
  Result<PlacementResult> placement = TryOptimizeRackPlacement(
      request.node_probabilities, request.rack_probabilities, cancel, progress.enum_configs);
  if (!placement.ok()) return placement.status();
  Json result = Json::Object();
  Json rack_of = Json::Array();
  for (int rack : placement->rack_of) {
    rack_of.Append(Json::Number(rack));
  }
  result.Set("rack_of", std::move(rack_of));
  result.Set("safe_and_live", Json::String(FormatPercent(placement->safe_and_live)));
  result.Set("failure_probability", Json::Number(placement->safe_and_live.complement()));
  return result;
}

Result<Json> RunEndToEnd(const ServeRequest& request, const CancelToken* cancel,
                         const EngineProgress& progress) {
  Result<ReliabilityReport> consensus =
      StandardReport(request.protocol == "pbft", request, cancel, progress);
  if (!consensus.ok()) return consensus.status();
  EndToEndParams params = request.end_to_end;
  params.consensus = *consensus;
  const EndToEndReport report = ComputeEndToEnd(params);

  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  result.Set("n", Json::Number(request.fault.n()));
  result.Set("consensus", ReportJson(params.consensus));
  result.Set("availability", Json::String(FormatPercent(report.availability)));
  result.Set("mission_durability", Json::String(FormatPercent(report.mission_durability)));
  result.Set("outage_minutes_per_year", Json::Number(report.outage_minutes_per_year));
  return result;
}

Result<Json> RunMonteCarlo(const ServeRequest& request, const CancelToken* cancel,
                           const EngineProgress& progress) {
  std::unique_ptr<JointFailureModel> model;
  int n = 0;
  if (request.beta_binomial) {
    n = request.beta_n;
    model = std::make_unique<BetaBinomialFailureModel>(n, request.alpha, request.beta);
  } else {
    n = request.fault.n();
    model = std::make_unique<IndependentFailureModel>(request.fault.probabilities);
  }
  const ReliabilityAnalyzer analyzer{std::move(model)};
  // Brownout: cap the trial count but keep the caller's seed, so the degraded answer is
  // still a deterministic prefix-style estimate of the requested run.
  const bool degraded = request.degraded && request.degraded_trials > 0 &&
                        request.degraded_trials < request.trials;
  const uint64_t trials = degraded ? request.degraded_trials : request.trials;
  MonteCarloOptions options;
  options.trials = trials;
  options.seed = request.seed;
  options.cancel = cancel;
  options.progress = progress.mc_trials;

  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  result.Set("n", Json::Number(n));
  result.Set("trials", Json::Number(trials));
  result.Set("seed", Json::Number(request.seed));
  Result<ConfidenceInterval> estimate =
      request.protocol == "raft"
          ? TryEstimateRaftLive(RaftConfig::Standard(n), analyzer, options)
          : TryEstimatePbftSafeAndLive(PbftConfig::Standard(n), analyzer, options);
  if (!estimate.ok()) return estimate.status();
  result.Set("event", Json::String(request.protocol == "raft" ? "live" : "safe_and_live"));
  Json interval = Json::Object();
  interval.Set("point", Json::Number(estimate->point));
  interval.Set("lower", Json::Number(estimate->low));
  interval.Set("upper", Json::Number(estimate->high));
  result.Set("estimate", std::move(interval));
  if (degraded) {
    result.Set("degraded", Json::Bool(true));
    result.Set("requested_trials", Json::Number(request.trials));
    result.Set("ci_width", Json::Number(estimate->high - estimate->low));
  }
  return result;
}

// Probability rendered the same way ReportJson renders report cells: the paper-formatted
// percent string next to the raw complement for programmatic clients.
void SetProbabilityFields(Json* object, std::string_view name,
                          std::string_view complement_name, const Probability& p) {
  object->Set(name, Json::String(FormatPercent(p)));
  object->Set(complement_name, Json::Number(p.complement()));
}

Result<Json> RunAvailability(const ServeRequest& request, const CancelToken* cancel,
                             const EngineProgress& progress) {
  const FleetModel model(request.fleet, request.fleet_protocol());
  CtmcSolveOptions options;
  options.cancel = cancel;
  options.progress = progress.ctmc_steps;

  Result<Probability> availability =
      model.TrySteadyStateAvailability(/*reconfiguration=*/false, options);
  if (!availability.ok()) return availability.status();
  Result<double> mttu = model.TryMeanTimeToUnavailability(/*reconfiguration=*/false, options);
  if (!mttu.ok()) return mttu.status();

  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  result.Set("total_nodes", Json::Number(model.total_nodes()));
  result.Set("states", Json::Number(model.state_count()));
  SetProbabilityFields(&result, "availability", "unavailability", *availability);
  result.Set("downtime_hours_per_year",
             Json::Number(FleetModel::DowntimeHoursPerYear(*availability)));
  result.Set("mttu_hours", Json::Number(*mttu));
  if (request.loss_threshold > 0) {
    Result<double> mttql = model.TryMeanTimeToQuorumLoss(request.loss_threshold, options);
    if (!mttql.ok()) return mttql.status();
    result.Set("loss_threshold", Json::Number(request.loss_threshold));
    result.Set("mttql_hours", Json::Number(*mttql));
  }
  if (request.reconfiguration) {
    Result<Probability> joint =
        model.TrySteadyStateAvailability(/*reconfiguration=*/true, options);
    if (!joint.ok()) return joint.status();
    Result<double> joint_mttu =
        model.TryMeanTimeToUnavailability(/*reconfiguration=*/true, options);
    if (!joint_mttu.ok()) return joint_mttu.status();
    Json reconfig = Json::Object();
    SetProbabilityFields(&reconfig, "availability", "unavailability", *joint);
    reconfig.Set("downtime_hours_per_year",
                 Json::Number(FleetModel::DowntimeHoursPerYear(*joint)));
    reconfig.Set("mttu_hours", Json::Number(*joint_mttu));
    result.Set("reconfiguration", std::move(reconfig));
  }
  return result;
}

Result<Json> RunMissionReliability(const ServeRequest& request, const CancelToken* cancel,
                                   const EngineProgress& progress) {
  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  if (request.schedule_mode) {
    // Per-round mode: Theorems 3.1/3.2 per schedule round + cumulative mission aggregates.
    const RoundSchedule schedule(request.round_hours, request.schedule_probabilities);
    Result<RoundAnalysis> analysis =
        request.protocol == "raft"
            ? TryAnalyzeRaftRounds(RaftConfig::Standard(schedule.n()), schedule,
                                   AnalysisMethod::kAuto, cancel, progress.enum_configs)
            : TryAnalyzePbftRounds(PbftConfig::Standard(schedule.n()), schedule,
                                   AnalysisMethod::kAuto, cancel, progress.enum_configs);
    if (!analysis.ok()) return analysis.status();
    result.Set("mode", Json::String("schedule"));
    result.Set("n", Json::Number(schedule.n()));
    result.Set("rounds", Json::Number(schedule.rounds()));
    result.Set("round_hours", Json::Number(schedule.round_hours()));
    result.Set("mission_hours", Json::Number(schedule.mission_hours()));
    Json mission = Json::Object();
    SetProbabilityFields(&mission, "safe", "unsafe_probability", analysis->mission_safe);
    SetProbabilityFields(&mission, "live", "not_live_probability", analysis->mission_live);
    SetProbabilityFields(&mission, "safe_and_live", "failure_probability",
                         analysis->mission_safe_and_live);
    result.Set("mission", std::move(mission));
    result.Set("final_round", ReportJson(analysis->per_round.back()));
    result.Set("final_cumulative", ReportJson(analysis->cumulative.back()));
    return result;
  }
  // Fleet CTMC mode: P(no liveness outage within the mission) via uniformization.
  const FleetModel model(request.fleet, request.fleet_protocol());
  CtmcSolveOptions options;
  options.cancel = cancel;
  options.progress = progress.ctmc_steps;
  Result<Probability> reliability =
      model.TryMissionReliability(request.mission_hours, request.reconfiguration, options);
  if (!reliability.ok()) return reliability.status();
  result.Set("mode", Json::String("fleet"));
  result.Set("total_nodes", Json::Number(model.total_nodes()));
  result.Set("states", Json::Number(model.state_count()));
  result.Set("mission_hours", Json::Number(request.mission_hours));
  result.Set("reconfiguration_window", Json::Bool(request.reconfiguration));
  SetProbabilityFields(&result, "mission_reliability", "outage_probability", *reliability);
  return result;
}

Result<Json> RunRepairSweep(const ServeRequest& request, const CancelToken* cancel,
                            const EngineProgress& progress) {
  CtmcSolveOptions options;
  options.cancel = cancel;
  options.progress = progress.ctmc_steps;
  std::optional<double> target;
  if (request.sweep_target_availability > 0.0) {
    target = request.sweep_target_availability;
  }
  Result<RepairSweepResult> sweep =
      TryRepairRateSweep(request.fleet, request.fleet_protocol(),
                         request.sweep_repair_rates, target, options);
  if (!sweep.ok()) return sweep.status();

  Json result = Json::Object();
  result.Set("protocol", Json::String(request.protocol));
  Json points = Json::Array();
  for (const RepairSweepPoint& point : sweep->points) {
    Json row = Json::Object();
    row.Set("repair_rate", Json::Number(point.repair_rate));
    SetProbabilityFields(&row, "availability", "unavailability", point.availability);
    row.Set("mttu_hours", Json::Number(point.mttu_hours));
    row.Set("downtime_hours_per_year", Json::Number(point.downtime_hours_per_year));
    points.Append(std::move(row));
  }
  result.Set("points", std::move(points));
  if (target.has_value()) {
    result.Set("target_availability", Json::Number(*target));
    if (sweep->first_rate_meeting_target.has_value()) {
      result.Set("first_rate_meeting_target",
                 Json::Number(*sweep->first_rate_meeting_target));
    } else {
      result.Set("first_rate_meeting_target", Json::Null());
    }
  }
  return result;
}

}  // namespace

Result<Json> ExecuteRequest(const ServeRequest& request, const CancelToken* cancel,
                            const EngineProgress& progress) {
  switch (request.kind) {
    case RequestKind::kPing: {
      Json result = Json::Object();
      result.Set("ok", Json::Bool(true));
      return result;
    }
    case RequestKind::kTable1:
      return RunTable(/*pbft=*/true, request, cancel, progress);
    case RequestKind::kTable2:
      return RunTable(/*pbft=*/false, request, cancel, progress);
    case RequestKind::kQuorumSize:
      return RunQuorumSize(request, cancel);
    case RequestKind::kPlacement:
      return RunPlacement(request, cancel, progress);
    case RequestKind::kEndToEnd:
      return RunEndToEnd(request, cancel, progress);
    case RequestKind::kMonteCarlo:
      return RunMonteCarlo(request, cancel, progress);
    case RequestKind::kAvailability:
      return RunAvailability(request, cancel, progress);
    case RequestKind::kMissionReliability:
      return RunMissionReliability(request, cancel, progress);
    case RequestKind::kRepairSweep:
      return RunRepairSweep(request, cancel, progress);
    case RequestKind::kStats:
    case RequestKind::kHealth:
      // Handled inline by the server; stats and health requests never reach the engine.
      break;
  }
  return InternalError("unhandled request kind");
}

}  // namespace probcon::serve
