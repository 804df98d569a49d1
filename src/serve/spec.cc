#include "src/serve/spec.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "src/analysis/placement.h"
#include "src/analysis/protocol_spec.h"
#include "src/faultmodel/fault_curve.h"
#include "src/faultmodel/joint_model.h"
#include "src/faultmodel/round_schedule.h"
#include "src/lifecycle/fleet_model.h"
#include "src/lifecycle/repair_sweep.h"
#include "src/markov/ctmc.h"

namespace probcon::serve {
namespace {

constexpr std::string_view kWhat = "serve request";

constexpr std::string_view kKindNames[kRequestKindCount] = {
    "ping",       "table1",     "table2", "quorum_size",
    "placement",  "end_to_end", "montecarlo", "stats", "health",
    "availability", "mission_reliability", "repair_sweep",
};

// Engine preconditions are not written here: each engine states its own as a Validate…()
// function that its CHECK calls too, and FromParams returns that Status through EdgeError,
// so malformed input degrades to INVALID_ARGUMENT, never a crash. Clusters are capped at
// kMaxConfigurationNodes (joint_model.h), the width of the failure bitmask every joint
// model CHECKs. The caps below are serving policy only: they bound one request's cost.
constexpr uint64_t kMaxTrials = 1u << 30;   // ~1e9 Monte Carlo trials per request.

// Fleet-lifecycle caps. The direct CTMC solvers are O(m^3) in the lumped state count m, so
// a single availability request is held to m <= 1024 (~1e9 flops, about a second) and a
// repair sweep — up to kMaxSweepPoints solves — to m <= 256. Uniformization costs
// terms * m^2 (terms from ctmc.h's UniformizationTermBound); the product is bounded below at
// parse time so no admissible request can pin an engine thread for more than a few seconds.
constexpr int kMaxFleetClasses = 8;
constexpr int kMaxFleetClassCount = 100;     // nodes per vintage class
constexpr int kMaxFleetStatesServe = 1024;   // availability / mission_reliability
constexpr int kMaxSweepStates = 256;         // repair_sweep (many solves per request)
constexpr int kMaxSweepPoints = 64;
constexpr int kMaxScheduleRounds = 512;
constexpr double kMaxMissionHours = 1e7;     // ~1141 years
constexpr double kMaxUniformizationCost = 2e9;  // Poisson terms * m^2 flop budget

// An engine precondition's Status, worded like every other edge error.
Status EdgeError(const Status& status) {
  if (status.ok()) return status;
  return InvalidArgumentError(std::string(kWhat) + ": " + status.message());
}

// Builds a FaultCurve from its JSON spec (see the FaultSpec doc in spec.h). The parameter
// limits are the curve constructors' own Validate functions.
Result<std::unique_ptr<FaultCurve>> CurveFromJson(const Json& curve) {
  if (!curve.IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": \"curve\" must be an object");
  }
  std::string curve_kind;
  RETURN_IF_ERROR(JsonReadString(curve, "kind", &curve_kind, kWhat));
  if (curve_kind.empty()) {
    return InvalidArgumentError(std::string(kWhat) + ": curve requires a \"kind\"");
  }
  if (curve_kind == "constant") {
    double rate = -1.0;
    double window_probability = -1.0;
    double window = 0.0;
    RETURN_IF_ERROR(JsonReadDouble(curve, "rate", &rate, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "window_probability", &window_probability, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "window", &window, kWhat));
    if (window_probability >= 0.0) {
      RETURN_IF_ERROR(
          EdgeError(ConstantFaultCurve::ValidateWindowProbability(window_probability, window)));
      return std::unique_ptr<FaultCurve>(std::make_unique<ConstantFaultCurve>(
          ConstantFaultCurve::FromWindowProbability(window_probability, window)));
    }
    RETURN_IF_ERROR(EdgeError(ConstantFaultCurve::Validate(rate)));
    return std::unique_ptr<FaultCurve>(std::make_unique<ConstantFaultCurve>(rate));
  }
  if (curve_kind == "weibull") {
    double shape = 0.0;
    double scale = 0.0;
    RETURN_IF_ERROR(JsonReadDouble(curve, "shape", &shape, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "scale", &scale, kWhat));
    RETURN_IF_ERROR(EdgeError(WeibullFaultCurve::Validate(shape, scale)));
    return std::unique_ptr<FaultCurve>(std::make_unique<WeibullFaultCurve>(shape, scale));
  }
  if (curve_kind == "gompertz") {
    double base_rate = -1.0;
    double aging_rate = 0.0;
    RETURN_IF_ERROR(JsonReadDouble(curve, "base_rate", &base_rate, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "aging_rate", &aging_rate, kWhat));
    RETURN_IF_ERROR(EdgeError(GompertzFaultCurve::Validate(base_rate, aging_rate)));
    return std::unique_ptr<FaultCurve>(
        std::make_unique<GompertzFaultCurve>(base_rate, aging_rate));
  }
  if (curve_kind == "bathtub") {
    double infant_shape = 0.0, infant_scale = 0.0;
    double useful_life_rate = -1.0;
    double wearout_shape = 0.0, wearout_scale = 0.0;
    RETURN_IF_ERROR(JsonReadDouble(curve, "infant_shape", &infant_shape, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "infant_scale", &infant_scale, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "useful_life_rate", &useful_life_rate, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "wearout_shape", &wearout_shape, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(curve, "wearout_scale", &wearout_scale, kWhat));
    RETURN_IF_ERROR(EdgeError(ValidateBathtubCurve(infant_shape, infant_scale, useful_life_rate,
                                                   wearout_shape, wearout_scale)));
    return std::unique_ptr<FaultCurve>(std::make_unique<CompositeFaultCurve>(MakeBathtubCurve(
        infant_shape, infant_scale, useful_life_rate, wearout_shape, wearout_scale)));
  }
  return InvalidArgumentError(std::string(kWhat) + ": unknown curve kind \"" + curve_kind +
                              "\" (want constant, weibull, gompertz, or bathtub)");
}

// A curve's probability of failing during [age, age + window]. INVALID_ARGUMENT when the
// cumulative hazard overflows there (FailureProbability is then NaN).
Result<double> CurveWindowProbability(const FaultCurve& curve, double age, double window) {
  const double p = curve.FailureProbability(age, age + window);
  if (std::isnan(p)) {
    return InvalidArgumentError(std::string(kWhat) +
                                ": the curve's cumulative hazard overflows at age " +
                                FormatDouble(age));
  }
  return p;
}

// Rejects a cluster larger than any joint model describes, before anything is sized by it.
Status CheckMaxNodes(int n) {
  if (n <= kMaxConfigurationNodes) return Status::Ok();
  return InvalidArgumentError(std::string(kWhat) + ": fault spec resolves to " +
                              std::to_string(n) + " nodes, above the limit of " +
                              std::to_string(kMaxConfigurationNodes));
}

// The smallest cluster a request's protocol admits: kPbftMinNodes for PBFT, 3 for Raft.
int MinNodes(const std::string& protocol) { return protocol == "pbft" ? kPbftMinNodes : 3; }

Status CheckMinNodes(std::string_view what, const std::string& protocol, int n) {
  if (n >= MinNodes(protocol)) return Status::Ok();
  return InvalidArgumentError(std::string(kWhat) + ": " + std::string(what) + " with " +
                              protocol + " requires n >= " + std::to_string(MinNodes(protocol)));
}

Result<std::string> ReadProtocol(const Json& params) {
  std::string protocol;
  RETURN_IF_ERROR(JsonReadString(params, "protocol", &protocol, kWhat));
  if (protocol != "raft" && protocol != "pbft") {
    return InvalidArgumentError(std::string(kWhat) + ": \"protocol\" must be \"raft\" or "
                                                     "\"pbft\", got \"" +
                                protocol + "\"");
  }
  return protocol;
}

Json DoubleListJson(const std::vector<double>& values) {
  Json array = Json::Array();
  for (double v : values) {
    array.Append(Json::Number(v));
  }
  return array;
}

// Parses the "fleet" object shared by the lifecycle kinds. Class curves are resolved to
// lumped rates here (FleetClass::FromCurve semantics: hazard frozen at the class age), so
// canonical keys and engines only ever see rates — a curve spec and its resolved rates
// memoize to the same entry.
Result<FleetParams> FleetFromJson(const Json* fleet_json, FleetProtocol protocol,
                                  int max_states) {
  if (fleet_json == nullptr || !fleet_json->IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": a \"fleet\" object is required");
  }
  const Json* classes = fleet_json->Find("classes");
  if (classes == nullptr || !classes->IsArray() || classes->items.empty()) {
    return InvalidArgumentError(std::string(kWhat) +
                                ": fleet requires a non-empty \"classes\" array");
  }
  if (static_cast<int>(classes->items.size()) > kMaxFleetClasses) {
    return InvalidArgumentError(std::string(kWhat) + ": fleet is limited to " +
                                std::to_string(kMaxFleetClasses) + " classes");
  }
  FleetParams params;
  for (size_t i = 0; i < classes->items.size(); ++i) {
    const Json& class_json = classes->items[i];
    if (!class_json.IsObject()) {
      return InvalidArgumentError(std::string(kWhat) + ": fleet classes must be objects");
    }
    FleetClass cls;
    RETURN_IF_ERROR(JsonReadInt(class_json, "count", &cls.count, kWhat));
    if (cls.count < 1 || cls.count > kMaxFleetClassCount) {
      return InvalidArgumentError(std::string(kWhat) + ": fleet class " + std::to_string(i) +
                                  " requires 1 <= count <= " +
                                  std::to_string(kMaxFleetClassCount));
    }
    double rate = -1.0;
    RETURN_IF_ERROR(JsonReadDouble(class_json, "failure_rate", &rate, kWhat));
    if (const Json* curve_json = class_json.Find("curve"); curve_json != nullptr) {
      if (rate >= 0.0) {
        return InvalidArgumentError(std::string(kWhat) + ": fleet class " + std::to_string(i) +
                                    " must give \"failure_rate\" or \"curve\", not both");
      }
      Result<std::unique_ptr<FaultCurve>> curve = CurveFromJson(*curve_json);
      if (!curve.ok()) return curve.status();
      double age = 0.0;
      RETURN_IF_ERROR(JsonReadDouble(class_json, "age", &age, kWhat));
      if (!(age >= 0.0) || !std::isfinite(age)) {
        return InvalidArgumentError(std::string(kWhat) + ": fleet class ages must be >= 0");
      }
      rate = (*curve)->HazardRate(age);
    }
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      return InvalidArgumentError(std::string(kWhat) + ": fleet class " + std::to_string(i) +
                                  " needs failure_rate > 0 (or a curve with a positive "
                                  "hazard at its age)");
    }
    cls.failure_rate = rate;
    RETURN_IF_ERROR(JsonReadBool(class_json, "old", &cls.in_old, kWhat));
    RETURN_IF_ERROR(JsonReadBool(class_json, "new", &cls.in_new, kWhat));
    params.classes.push_back(cls);
  }
  RETURN_IF_ERROR(JsonReadDouble(*fleet_json, "repair_rate", &params.repair_rate, kWhat));
  RETURN_IF_ERROR(JsonReadInt(*fleet_json, "repair_servers", &params.repair_servers, kWhat));
  RETURN_IF_ERROR(EdgeError(FleetModel::Validate(params, protocol, max_states)));
  return params;
}

int FleetTotalNodes(const FleetParams& params) {
  int total = 0;
  for (const FleetClass& cls : params.classes) {
    total += cls.count;
  }
  return total;
}

// Rejects a sweep of more rates than one request may solve.
Status CheckSweepPoints(size_t points) {
  if (points <= static_cast<size_t>(kMaxSweepPoints)) return Status::Ok();
  return InvalidArgumentError(std::string(kWhat) + ": repair_sweep is limited to " +
                              std::to_string(kMaxSweepPoints) + " rates");
}

// Rejects mission horizons whose uniformization would blow the per-request flop budget.
// The uniformization rate is bounded by the total failure rate plus the repair pool rate,
// so the bound is computable at the edge — INVALID_ARGUMENT here, never a multi-minute
// engine stall.
Status CheckUniformizationBudget(const FleetParams& params, double mission_hours) {
  double exit_rate = 0.0;
  double states = 1.0;
  for (const FleetClass& cls : params.classes) {
    exit_rate += cls.count * cls.failure_rate;
    states *= cls.count + 1;
  }
  exit_rate += std::min(FleetTotalNodes(params), params.repair_servers) * params.repair_rate;
  const double terms = UniformizationTermBound(kUniformizationSlack * exit_rate * mission_hours);
  if (terms * states * states > kMaxUniformizationCost) {
    return InvalidArgumentError(
        std::string(kWhat) +
        ": mission_hours * fleet rates exceed the uniformization budget (shorten the "
        "mission, shrink the fleet, or lower the rates)");
  }
  return Status::Ok();
}

// Parses the "schedule" object of a mission_reliability request into the request's
// (round_hours, schedule_probabilities) pair: either an explicit matrix or a curve form
// evaluated round by round. Probabilities are validated against RoundSchedule::Validate so
// the engine's RoundSchedule construction cannot CHECK-fail on wire input.
Status ParseSchedule(const Json& schedule, int min_n, ServeRequest* request) {
  if (!schedule.IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": \"schedule\" must be an object");
  }
  RETURN_IF_ERROR(JsonReadDouble(schedule, "round_hours", &request->round_hours, kWhat));
  if (!(request->round_hours > 0.0) || !std::isfinite(request->round_hours)) {
    return InvalidArgumentError(std::string(kWhat) + ": schedule requires round_hours > 0");
  }
  const Json* matrix = schedule.Find("round_probabilities");
  if (matrix != nullptr) {
    if (!matrix->IsArray() || matrix->items.empty()) {
      return InvalidArgumentError(std::string(kWhat) +
                                  ": round_probabilities must be a non-empty array of rows");
    }
    for (const Json& row : matrix->items) {
      if (!row.IsArray()) {
        return InvalidArgumentError(std::string(kWhat) +
                                    ": round_probabilities rows must be arrays");
      }
      std::vector<double> probabilities;
      probabilities.reserve(row.items.size());
      for (const Json& item : row.items) {
        if (!item.IsNumber()) {
          return InvalidArgumentError(std::string(kWhat) +
                                      ": round_probabilities entries must be numbers");
        }
        probabilities.push_back(item.NumberValue());
      }
      request->schedule_probabilities.push_back(std::move(probabilities));
    }
  } else {
    const Json* curve_json = schedule.Find("curve");
    if (curve_json == nullptr) {
      return InvalidArgumentError(std::string(kWhat) +
                                  ": schedule requires \"round_probabilities\" or a "
                                  "\"curve\" form");
    }
    Result<std::unique_ptr<FaultCurve>> curve = CurveFromJson(*curve_json);
    if (!curve.ok()) return curve.status();
    int n = 0;
    int rounds = 0;
    double age = 0.0;
    RETURN_IF_ERROR(JsonReadInt(schedule, "n", &n, kWhat));
    RETURN_IF_ERROR(JsonReadInt(schedule, "rounds", &rounds, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(schedule, "age", &age, kWhat));
    if (n < 1 || n > kMaxConfigurationNodes || rounds < 1 || rounds > kMaxScheduleRounds) {
      return InvalidArgumentError(std::string(kWhat) +
                                  ": curve schedule requires 1 <= n <= " +
                                  std::to_string(kMaxConfigurationNodes) +
                                  " and 1 <= rounds <= " +
                                  std::to_string(kMaxScheduleRounds));
    }
    if (!(age >= 0.0) || !std::isfinite(age)) {
      return InvalidArgumentError(std::string(kWhat) + ": schedule age must be >= 0");
    }
    for (int r = 0; r < rounds; ++r) {
      Result<double> p =
          CurveWindowProbability(**curve, age + r * request->round_hours, request->round_hours);
      if (!p.ok()) return p.status();
      request->schedule_probabilities.push_back(std::vector<double>(static_cast<size_t>(n), *p));
    }
  }
  if (static_cast<int>(request->schedule_probabilities.size()) > kMaxScheduleRounds) {
    return InvalidArgumentError(std::string(kWhat) + ": schedule is limited to " +
                                std::to_string(kMaxScheduleRounds) + " rounds");
  }
  RETURN_IF_ERROR(
      EdgeError(RoundSchedule::Validate(request->round_hours, request->schedule_probabilities)));
  const int n = static_cast<int>(request->schedule_probabilities.front().size());
  if (n > kMaxConfigurationNodes || n < min_n) {
    return InvalidArgumentError(std::string(kWhat) + ": schedule requires " +
                                std::to_string(min_n) + " <= n <= " +
                                std::to_string(kMaxConfigurationNodes));
  }
  return Status::Ok();
}

Json FleetCanonicalJson(const FleetParams& fleet) {
  Json object = Json::Object();
  Json classes = Json::Array();
  for (const FleetClass& cls : fleet.classes) {
    Json class_json = Json::Object();
    class_json.Set("count", Json::Number(cls.count));
    class_json.Set("failure_rate", Json::Number(cls.failure_rate));
    class_json.Set("old", Json::Bool(cls.in_old));
    class_json.Set("new", Json::Bool(cls.in_new));
    classes.Append(std::move(class_json));
  }
  object.Set("classes", std::move(classes));
  object.Set("repair_rate", Json::Number(fleet.repair_rate));
  object.Set("repair_servers", Json::Number(fleet.repair_servers));
  return object;
}

}  // namespace

std::string_view RequestKindName(RequestKind kind) {
  const int index = static_cast<int>(kind);
  CHECK(index >= 0 && index < kRequestKindCount);
  return kKindNames[index];
}

Result<RequestKind> RequestKindFromName(std::string_view name) {
  for (int i = 0; i < kRequestKindCount; ++i) {
    if (kKindNames[i] == name) {
      return static_cast<RequestKind>(i);
    }
  }
  return InvalidArgumentError(std::string(kWhat) + ": unknown request kind \"" +
                              std::string(name) + "\"");
}

FaultSpec FaultSpec::Uniform(int n, double p) {
  FaultSpec spec;
  spec.probabilities.assign(static_cast<size_t>(n), p);
  return spec;
}

Result<FaultSpec> FaultSpec::FromJson(const Json* json, int default_n, double default_p) {
  if (json == nullptr) {
    if (default_n <= 0) {
      return InvalidArgumentError(std::string(kWhat) +
                                  ": a \"fault\" object (or \"n\") is required");
    }
    RETURN_IF_ERROR(CheckMaxNodes(default_n));
    return Uniform(default_n, default_p);
  }
  if (!json->IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": \"fault\" must be an object");
  }

  FaultSpec spec;
  std::vector<double> probabilities;
  RETURN_IF_ERROR(JsonReadDoubleList(*json, "probabilities", &probabilities, kWhat));
  if (!probabilities.empty()) {
    spec.probabilities = std::move(probabilities);
  } else if (const Json* curve_json = json->Find("curve"); curve_json != nullptr) {
    Result<std::unique_ptr<FaultCurve>> curve = CurveFromJson(*curve_json);
    if (!curve.ok()) return curve.status();
    double window = 0.0;
    RETURN_IF_ERROR(JsonReadDouble(*json, "window", &window, kWhat));
    if (!(window > 0.0) || !std::isfinite(window)) {
      return InvalidArgumentError(std::string(kWhat) +
                                  ": a curve-based fault spec requires \"window\" > 0");
    }
    std::vector<double> ages;
    RETURN_IF_ERROR(JsonReadDoubleList(*json, "ages", &ages, kWhat));
    if (ages.empty()) {
      int n = default_n;
      RETURN_IF_ERROR(JsonReadInt(*json, "n", &n, kWhat));
      double age = 0.0;
      RETURN_IF_ERROR(JsonReadDouble(*json, "age", &age, kWhat));
      if (n <= 0) {
        return InvalidArgumentError(std::string(kWhat) +
                                    ": curve-based fault spec requires \"n\" or \"ages\"");
      }
      RETURN_IF_ERROR(CheckMaxNodes(n));
      ages.assign(static_cast<size_t>(n), age);
    }
    for (double age : ages) {
      if (!(age >= 0.0) || !std::isfinite(age)) {
        return InvalidArgumentError(std::string(kWhat) + ": node ages must be >= 0");
      }
      Result<double> p = CurveWindowProbability(**curve, age, window);
      if (!p.ok()) return p.status();
      spec.probabilities.push_back(*p);
    }
  } else {
    int n = default_n;
    double p = default_p;
    RETURN_IF_ERROR(JsonReadInt(*json, "n", &n, kWhat));
    RETURN_IF_ERROR(JsonReadDouble(*json, "p", &p, kWhat));
    if (n <= 0) {
      return InvalidArgumentError(std::string(kWhat) + ": uniform fault spec requires n > 0");
    }
    RETURN_IF_ERROR(CheckMaxNodes(n));
    spec = Uniform(n, p);
  }

  RETURN_IF_ERROR(EdgeError(IndependentFailureModel::Validate(spec.probabilities)));
  return spec;
}

Json FaultSpec::ToCanonicalJson() const {
  Json object = Json::Object();
  object.Set("probabilities", DoubleListJson(probabilities));
  return object;
}

Result<ServeRequest> ServeRequest::FromParams(RequestKind kind, const Json& params) {
  if (!params.IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": \"params\" must be an object");
  }
  ServeRequest request;
  request.kind = kind;
  const Json* fault_json = params.Find("fault");

  switch (kind) {
    case RequestKind::kPing:
    case RequestKind::kHealth:
      return request;

    case RequestKind::kStats:
      RETURN_IF_ERROR(JsonReadBool(params, "reset", &request.stats_reset, kWhat));
      return request;

    case RequestKind::kTable1:
    case RequestKind::kTable2: {
      // Accept a top-level {"n": ..} shorthand matching the paper tables (uniform p=1%).
      int n = 0;
      RETURN_IF_ERROR(JsonReadInt(params, "n", &n, kWhat));
      Result<FaultSpec> fault = FaultSpec::FromJson(fault_json, n, /*default_p=*/0.01);
      if (!fault.ok()) return fault.status();
      request.fault = *std::move(fault);
      if (n > 0 && request.fault.n() != n) {
        return InvalidArgumentError(std::string(kWhat) + ": \"n\" (" + std::to_string(n) +
                                    ") disagrees with the fault spec (" +
                                    std::to_string(request.fault.n()) + " nodes)");
      }
      RETURN_IF_ERROR(CheckMinNodes(RequestKindName(kind),
                                    kind == RequestKind::kTable1 ? "pbft" : "raft",
                                    request.fault.n()));
      return request;
    }

    case RequestKind::kQuorumSize: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      Result<FaultSpec> fault =
          FaultSpec::FromJson(fault_json, /*default_n=*/0, /*default_p=*/0.01);
      if (!fault.ok()) return fault.status();
      request.fault = *std::move(fault);
      RETURN_IF_ERROR(CheckMinNodes("quorum_size", request.protocol, request.fault.n()));
      request.target_live = 0.999;
      request.target_safe = 0.9999;
      RETURN_IF_ERROR(JsonReadDouble(params, "target_live", &request.target_live, kWhat));
      RETURN_IF_ERROR(JsonReadDouble(params, "target_safe", &request.target_safe, kWhat));
      if (!(request.target_live > 0.0 && request.target_live < 1.0) ||
          !(request.target_safe > 0.0 && request.target_safe < 1.0)) {
        return InvalidArgumentError(std::string(kWhat) +
                                    ": reliability targets must lie in (0, 1)");
      }
      return request;
    }

    case RequestKind::kPlacement: {
      RETURN_IF_ERROR(JsonReadDoubleList(params, "node_probabilities",
                                         &request.node_probabilities, kWhat));
      RETURN_IF_ERROR(JsonReadDoubleList(params, "rack_probabilities",
                                         &request.rack_probabilities, kWhat));
      RETURN_IF_ERROR(EdgeError(
          ValidateRackPlacement(request.node_probabilities, request.rack_probabilities)));
      return request;
    }

    case RequestKind::kEndToEnd: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      int n = 0;
      RETURN_IF_ERROR(JsonReadInt(params, "n", &n, kWhat));
      Result<FaultSpec> fault = FaultSpec::FromJson(fault_json, n, /*default_p=*/0.01);
      if (!fault.ok()) return fault.status();
      request.fault = *std::move(fault);
      RETURN_IF_ERROR(CheckMinNodes("end_to_end", request.protocol, request.fault.n()));
      EndToEndParams& end_to_end = request.end_to_end;
      RETURN_IF_ERROR(JsonReadDouble(params, "window_hours", &end_to_end.window_hours, kWhat));
      RETURN_IF_ERROR(
          JsonReadDouble(params, "mttr_hours", &end_to_end.mean_time_to_recover, kWhat));
      RETURN_IF_ERROR(JsonReadDouble(params, "data_loss_given_violation",
                                     &end_to_end.data_loss_given_violation, kWhat));
      RETURN_IF_ERROR(JsonReadDouble(params, "mission_hours", &end_to_end.mission_hours, kWhat));
      RETURN_IF_ERROR(EdgeError(ValidateEndToEndParams(end_to_end)));
      return request;
    }

    case RequestKind::kMonteCarlo: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      const Json* model = params.Find("model");
      std::string model_kind = "independent";
      if (model != nullptr) {
        if (!model->IsObject()) {
          return InvalidArgumentError(std::string(kWhat) + ": \"model\" must be an object");
        }
        RETURN_IF_ERROR(JsonReadString(*model, "kind", &model_kind, kWhat));
      }
      if (model_kind == "independent") {
        Result<FaultSpec> fault =
            FaultSpec::FromJson(fault_json, /*default_n=*/0, /*default_p=*/0.01);
        if (!fault.ok()) return fault.status();
        request.fault = *std::move(fault);
        RETURN_IF_ERROR(CheckMinNodes("montecarlo", request.protocol, request.fault.n()));
      } else if (model_kind == "beta_binomial") {
        request.beta_binomial = true;
        RETURN_IF_ERROR(JsonReadInt(*model, "n", &request.beta_n, kWhat));
        RETURN_IF_ERROR(JsonReadDouble(*model, "alpha", &request.alpha, kWhat));
        RETURN_IF_ERROR(JsonReadDouble(*model, "beta", &request.beta, kWhat));
        RETURN_IF_ERROR(
            CheckMinNodes("beta_binomial model", request.protocol, request.beta_n));
        RETURN_IF_ERROR(EdgeError(
            BetaBinomialFailureModel::Validate(request.beta_n, request.alpha, request.beta)));
      } else {
        return InvalidArgumentError(std::string(kWhat) + ": unknown model kind \"" +
                                    model_kind +
                                    "\" (want independent or beta_binomial)");
      }
      RETURN_IF_ERROR(JsonReadUint64(params, "trials", &request.trials, kWhat));
      RETURN_IF_ERROR(JsonReadUint64(params, "seed", &request.seed, kWhat));
      if (request.trials == 0 || request.trials > kMaxTrials) {
        return InvalidArgumentError(std::string(kWhat) + ": trials must lie in [1, " +
                                    std::to_string(kMaxTrials) + "]");
      }
      return request;
    }

    case RequestKind::kAvailability: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      Result<FleetParams> fleet =
          FleetFromJson(params.Find("fleet"), request.fleet_protocol(), kMaxFleetStatesServe);
      if (!fleet.ok()) return fleet.status();
      request.fleet = *std::move(fleet);
      RETURN_IF_ERROR(JsonReadBool(params, "reconfiguration", &request.reconfiguration,
                                   kWhat));
      RETURN_IF_ERROR(JsonReadInt(params, "loss_threshold", &request.loss_threshold, kWhat));
      if (request.loss_threshold < 0 ||
          request.loss_threshold > FleetTotalNodes(request.fleet)) {
        return InvalidArgumentError(std::string(kWhat) +
                                    ": loss_threshold must lie in [0, total fleet nodes]");
      }
      if (request.reconfiguration) {
        bool any_new = false;
        for (const FleetClass& cls : request.fleet.classes) {
          any_new = any_new || cls.in_new;
        }
        if (!any_new) {
          return InvalidArgumentError(std::string(kWhat) +
                                      ": reconfiguration analysis needs at least one class "
                                      "in the new membership (\"new\": true)");
        }
      }
      return request;
    }

    case RequestKind::kMissionReliability: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      const Json* schedule = params.Find("schedule");
      if (schedule != nullptr) {
        if (params.Find("fleet") != nullptr) {
          return InvalidArgumentError(std::string(kWhat) +
                                      ": give \"schedule\" or \"fleet\", not both");
        }
        request.schedule_mode = true;
        RETURN_IF_ERROR(ParseSchedule(*schedule, MinNodes(request.protocol), &request));
        return request;
      }
      Result<FleetParams> fleet =
          FleetFromJson(params.Find("fleet"), request.fleet_protocol(), kMaxFleetStatesServe);
      if (!fleet.ok()) return fleet.status();
      request.fleet = *std::move(fleet);
      RETURN_IF_ERROR(JsonReadDouble(params, "mission_hours", &request.mission_hours, kWhat));
      if (!(request.mission_hours > 0.0) || request.mission_hours > kMaxMissionHours) {
        return InvalidArgumentError(std::string(kWhat) +
                                    ": mission_hours must lie in (0, " +
                                    FormatDouble(kMaxMissionHours) + "]");
      }
      RETURN_IF_ERROR(JsonReadBool(params, "reconfiguration", &request.reconfiguration,
                                   kWhat));
      RETURN_IF_ERROR(CheckUniformizationBudget(request.fleet, request.mission_hours));
      return request;
    }

    case RequestKind::kRepairSweep: {
      Result<std::string> protocol = ReadProtocol(params);
      if (!protocol.ok()) return protocol.status();
      request.protocol = *std::move(protocol);
      Result<FleetParams> fleet =
          FleetFromJson(params.Find("fleet"), request.fleet_protocol(), kMaxSweepStates);
      if (!fleet.ok()) return fleet.status();
      request.fleet = *std::move(fleet);
      // The sweep replaces the repair rate point by point; zeroing the base keeps requests
      // that differ only in an ignored "repair_rate" on the same canonical key.
      request.fleet.repair_rate = 0.0;
      RETURN_IF_ERROR(JsonReadDoubleList(params, "repair_rates", &request.sweep_repair_rates,
                                         kWhat));
      if (!request.sweep_repair_rates.empty() &&
          (params.Find("min_rate") != nullptr || params.Find("max_rate") != nullptr ||
           params.Find("points") != nullptr)) {
        return InvalidArgumentError(
            std::string(kWhat) +
            ": give either explicit \"repair_rates\" or a min_rate/max_rate/points grid, "
            "not both");
      }
      if (request.sweep_repair_rates.empty()) {
        double min_rate = 0.0;
        double max_rate = 0.0;
        int points = 0;
        RETURN_IF_ERROR(JsonReadDouble(params, "min_rate", &min_rate, kWhat));
        RETURN_IF_ERROR(JsonReadDouble(params, "max_rate", &max_rate, kWhat));
        RETURN_IF_ERROR(JsonReadInt(params, "points", &points, kWhat));
        RETURN_IF_ERROR(EdgeError(ValidateGeometricRepairRates(min_rate, max_rate, points)));
        RETURN_IF_ERROR(CheckSweepPoints(points));
        request.sweep_repair_rates = GeometricRepairRates(min_rate, max_rate, points);
      }
      RETURN_IF_ERROR(CheckSweepPoints(request.sweep_repair_rates.size()));
      RETURN_IF_ERROR(JsonReadDouble(params, "target_availability",
                                     &request.sweep_target_availability, kWhat));
      std::optional<double> target;
      if (request.sweep_target_availability != 0.0) target = request.sweep_target_availability;
      RETURN_IF_ERROR(EdgeError(ValidateRepairRateSweep(request.sweep_repair_rates, target)));
      return request;
    }
  }
  return InvalidArgumentError(std::string(kWhat) + ": unhandled request kind");
}

Json ServeRequest::CanonicalParams() const {
  Json object = Json::Object();
  switch (kind) {
    case RequestKind::kPing:
    case RequestKind::kHealth:
      break;
    case RequestKind::kStats:
      if (stats_reset) {
        object.Set("reset", Json::Bool(true));
      }
      break;
    case RequestKind::kTable1:
    case RequestKind::kTable2:
      object.Set("fault", fault.ToCanonicalJson());
      break;
    case RequestKind::kQuorumSize:
      object.Set("protocol", Json::String(protocol));
      object.Set("fault", fault.ToCanonicalJson());
      object.Set("target_live", Json::Number(target_live));
      object.Set("target_safe", Json::Number(target_safe));
      break;
    case RequestKind::kPlacement:
      object.Set("node_probabilities", DoubleListJson(node_probabilities));
      object.Set("rack_probabilities", DoubleListJson(rack_probabilities));
      break;
    case RequestKind::kEndToEnd:
      object.Set("protocol", Json::String(protocol));
      object.Set("fault", fault.ToCanonicalJson());
      object.Set("window_hours", Json::Number(end_to_end.window_hours));
      object.Set("mttr_hours", Json::Number(end_to_end.mean_time_to_recover));
      object.Set("data_loss_given_violation", Json::Number(end_to_end.data_loss_given_violation));
      object.Set("mission_hours", Json::Number(end_to_end.mission_hours));
      break;
    case RequestKind::kMonteCarlo: {
      object.Set("protocol", Json::String(protocol));
      Json model = Json::Object();
      if (beta_binomial) {
        model.Set("kind", Json::String("beta_binomial"));
        model.Set("n", Json::Number(beta_n));
        model.Set("alpha", Json::Number(alpha));
        model.Set("beta", Json::Number(beta));
      } else {
        model.Set("kind", Json::String("independent"));
        model.Set("fault", fault.ToCanonicalJson());
      }
      object.Set("model", std::move(model));
      object.Set("trials", Json::Number(trials));
      object.Set("seed", Json::Number(seed));
      break;
    }
    case RequestKind::kAvailability:
      object.Set("protocol", Json::String(protocol));
      object.Set("fleet", FleetCanonicalJson(fleet));
      object.Set("reconfiguration", Json::Bool(reconfiguration));
      object.Set("loss_threshold", Json::Number(loss_threshold));
      break;
    case RequestKind::kMissionReliability:
      object.Set("protocol", Json::String(protocol));
      if (schedule_mode) {
        Json schedule = Json::Object();
        schedule.Set("round_hours", Json::Number(round_hours));
        Json matrix = Json::Array();
        for (const std::vector<double>& row : schedule_probabilities) {
          matrix.Append(DoubleListJson(row));
        }
        schedule.Set("round_probabilities", std::move(matrix));
        object.Set("schedule", std::move(schedule));
      } else {
        object.Set("fleet", FleetCanonicalJson(fleet));
        object.Set("mission_hours", Json::Number(mission_hours));
        object.Set("reconfiguration", Json::Bool(reconfiguration));
      }
      break;
    case RequestKind::kRepairSweep:
      object.Set("protocol", Json::String(protocol));
      object.Set("fleet", FleetCanonicalJson(fleet));
      object.Set("repair_rates", DoubleListJson(sweep_repair_rates));
      object.Set("target_availability", Json::Number(sweep_target_availability));
      break;
  }
  return object;
}

std::string ServeRequest::CanonicalKey() const {
  std::string key(RequestKindName(kind));
  key += ' ';
  key += WriteJson(CanonicalParams());
  return key;
}

Result<RequestEnvelope> RequestEnvelope::Parse(std::string_view payload) {
  Result<Json> parsed = ParseJson(payload, kWhat);
  if (!parsed.ok()) return parsed.status();
  const Json& root = *parsed;
  if (!root.IsObject()) {
    return InvalidArgumentError(std::string(kWhat) + ": envelope must be an object");
  }
  int version = 0;
  RETURN_IF_ERROR(JsonReadInt(root, "v", &version, kWhat));
  if (version != kProtocolVersion) {
    return InvalidArgumentError(std::string(kWhat) + ": unsupported protocol version " +
                                std::to_string(version) + " (this server speaks v" +
                                std::to_string(kProtocolVersion) + ")");
  }
  RequestEnvelope envelope;
  RETURN_IF_ERROR(JsonReadUint64(root, "id", &envelope.id, kWhat));
  RETURN_IF_ERROR(JsonReadDouble(root, "deadline_ms", &envelope.deadline_ms, kWhat));
  RETURN_IF_ERROR(JsonReadBool(root, "trace", &envelope.trace, kWhat));
  if (!std::isfinite(envelope.deadline_ms) || envelope.deadline_ms > kMaxDeadlineMs) {
    return InvalidArgumentError(std::string(kWhat) + ": deadline_ms must be finite and <= " +
                                FormatDouble(kMaxDeadlineMs));
  }
  std::string kind_name;
  RETURN_IF_ERROR(JsonReadString(root, "kind", &kind_name, kWhat));
  Result<RequestKind> kind = RequestKindFromName(kind_name);
  if (!kind.ok()) return kind.status();
  static const Json kEmptyParams = Json::Object();
  const Json* params = root.Find("params");
  Result<ServeRequest> request =
      ServeRequest::FromParams(*kind, params != nullptr ? *params : kEmptyParams);
  if (!request.ok()) return request.status();
  envelope.request = *std::move(request);
  return envelope;
}

std::string RequestEnvelope::Serialize(uint64_t id, std::string_view kind, const Json& params,
                                       double deadline_ms, bool trace) {
  Json root = Json::Object();
  root.Set("v", Json::Number(kProtocolVersion));
  root.Set("id", Json::Number(id));
  root.Set("kind", Json::String(std::string(kind)));
  if (deadline_ms > 0.0) {
    root.Set("deadline_ms", Json::Number(deadline_ms));
  }
  if (trace) {
    root.Set("trace", Json::Bool(true));
  }
  root.Set("params", params);
  return WriteJson(root);
}

Result<ResponseEnvelope> ResponseEnvelope::Parse(std::string_view payload) {
  Result<Json> parsed = ParseJson(payload, "serve response");
  if (!parsed.ok()) return parsed.status();
  const Json& root = *parsed;
  if (!root.IsObject()) {
    return InvalidArgumentError("serve response: envelope must be an object");
  }
  ResponseEnvelope envelope;
  RETURN_IF_ERROR(JsonReadUint64(root, "id", &envelope.id, "serve response"));
  if (root.Find("status") == nullptr) {
    return UnavailableError("serve response: missing status (corrupt envelope)");
  }
  std::string status_name;
  RETURN_IF_ERROR(JsonReadString(root, "status", &status_name, "serve response"));
  if (status_name != "OK") {
    std::string error_text;
    RETURN_IF_ERROR(JsonReadString(root, "error", &error_text, "serve response"));
    // A status name the writer could not have emitted means the bytes were corrupted in
    // flight, not that the server sent a verdict: fail the parse so the client treats the
    // stream as broken and retries, instead of fabricating a definite error status.
    StatusCode code = StatusCode::kOk;
    for (int c = 1; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
      if (StatusCodeName(static_cast<StatusCode>(c)) == status_name) {
        code = static_cast<StatusCode>(c);
        break;
      }
    }
    if (code == StatusCode::kOk) {
      return UnavailableError("serve response: unknown status name \"" + status_name +
                              "\" (corrupt envelope)");
    }
    envelope.status = Status(code, std::move(error_text));
    return envelope;
  }
  RETURN_IF_ERROR(JsonReadBool(root, "cached", &envelope.cached, "serve response"));
  RETURN_IF_ERROR(JsonReadBool(root, "degraded", &envelope.degraded, "serve response"));
  if (const Json* result = root.Find("result"); result != nullptr) {
    envelope.result = *result;
  }
  if (const Json* trace = root.Find("trace"); trace != nullptr) {
    envelope.trace = *trace;
  }
  return envelope;
}

std::string ResponseEnvelope::Write(uint64_t id, const Status& status, bool cached,
                                    bool degraded, std::string_view result_text,
                                    std::string_view trace_text) {
  // The field order and spacing are WriteJson's compact form of the same object.
  std::string out;
  out.reserve(result_text.size() + trace_text.size() + 96);
  out += "{\"v\": ";
  out += std::to_string(kProtocolVersion);
  out += ", \"id\": ";
  out += std::to_string(id);
  out += ", \"status\": \"";
  out += StatusCodeName(status.code());
  if (!status.ok()) {
    out += "\", \"error\": \"";
    out += JsonEscapeString(status.message());
    out += "\"}";
    return out;
  }
  out += cached ? "\", \"cached\": true" : "\", \"cached\": false";
  // Only degraded answers carry the flag, so normal ones keep the layout they had before
  // brownout existed.
  if (degraded) out += ", \"degraded\": true";
  out += ", \"result\": ";
  out += result_text;
  if (!trace_text.empty()) {
    out += ", \"trace\": ";
    out += trace_text;
  }
  out += '}';
  return out;
}

std::string ResponseEnvelope::Serialize() const {
  return Write(id, status, cached, degraded, status.ok() ? WriteJson(result) : "",
               trace.type != Json::Type::kNull ? WriteJson(trace) : "");
}

}  // namespace probcon::serve
