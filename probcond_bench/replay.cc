#include "probcond_bench/replay.h"

#include <atomic>
#include <charconv>
#include <fstream>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "probcond_bench/loadgen.h"
#include "src/analysis/placement.h"
#include "src/analysis/protocol_spec.h"
#include "src/analysis/reliability.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/exec/thread_pool.h"
#include "src/faultmodel/joint_model.h"
#include "src/lifecycle/fleet_model.h"
#include "src/lifecycle/repair_sweep.h"
#include "src/markov/ctmc.h"
#include "src/obs/metrics.h"
#include "src/probnative/quorum_sizer.h"
#include "src/serve/cache.h"
#include "src/serve/engine.h"
#include "src/serve/framing.h"
#include "src/serve/server.h"
#include "src/serve/spec.h"

namespace probcond_bench {
namespace {

using probcon::Json;
using probcon::Result;
using probcon::Status;
using probcon::serve::RequestEnvelope;
using probcon::serve::RequestKind;
using probcon::serve::ServeRequest;

constexpr std::string_view kKindSeparator = ", \"kind\": ";
// Engine probes run on at most this many of the requests that reached the engine.
constexpr size_t kMaxProbes = 2000;
// The daemon under test runs with PROBCON_THREADS=2; the replay's pool matches it.
constexpr int kReplayWorkers = 2;

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t span_;
};

// The two pieces of QueryServer that have no public entry point are modelled here and
// left untimed: its request-text memo (a payload whose text, id excised, was served before
// skips parsing and canonicalization) and its warm-hit response, the envelope spliced
// around the cached result text. The model is checked, not trusted: every response must be
// byte-identical to the daemon's, and the memo and cache counts must equal those of the
// daemon's own QueryServer serving the same requests in process (ServeInProcess).

// The memo key: the payload with its envelope id digits excised, in the exact layout
// RequestEnvelope::Serialize emits.
bool MemoText(const std::string& payload, std::string* text) {
  if (payload.compare(0, kIdPrefix.size(), kIdPrefix) != 0) return false;
  size_t pos = kIdPrefix.size();
  while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9') ++pos;
  const size_t digits = pos - kIdPrefix.size();
  if (digits == 0 || digits > 19) return false;
  if (payload.compare(pos, kKindSeparator.size(), kKindSeparator) != 0) return false;
  text->assign(payload, 0, kIdPrefix.size());
  text->append(payload, pos, std::string::npos);
  return true;
}

std::string SpliceCachedResponse(uint64_t id, const std::string& cached_text) {
  std::string out;
  out.reserve(cached_text.size() + 64);
  out += "{\"v\": ";
  out += std::to_string(probcon::serve::kProtocolVersion);
  out += ", \"id\": ";
  out += std::to_string(id);
  out += ", \"status\": \"OK\", \"cached\": true, \"result\": ";
  out += cached_text;
  out += '}';
  return out;
}

// Engine progress cells: the work the engines report at their poll boundaries.
struct Progress {
  std::atomic<uint64_t> mc_trials{0};
  std::atomic<uint64_t> enum_configs{0};
  std::atomic<uint64_t> ctmc_steps{0};
};

// One daemon's worth of serving state: the memo cache, the text memo, the progress cells.
class ServingPath {
 public:
  ServingPath() : cache_(probcon::serve::ServerOptions{}.cache_bytes, nullptr) {
    engine_progress_.mc_trials = &progress_.mc_trials;
    engine_progress_.enum_configs = &progress_.enum_configs;
    engine_progress_.ctmc_steps = &progress_.ctmc_steps;
  }

  // Serves one framed request the way QueryServer::Submit does and returns the response
  // payload; `computed` receives the parsed request when the engine ran, and `parsed` the
  // payload when it was parsed.
  std::string Serve(const std::string& frame, Tracer* tracer,
                    std::optional<ServeRequest>* computed, std::string* parsed) {
    std::string payload;
    {
      ScopedSpan span(tracer, "serve.framing");
      decoder_.Feed(frame);
      Result<std::optional<std::string>> next = decoder_.Next();
      CHECK(next.ok() && next->has_value());
      payload = **std::move(next);
    }
    std::string memo_text;
    const bool scanned = MemoText(payload, &memo_text);
    if (scanned) {
      const auto it = memo_.find(memo_text);
      ++(it != memo_.end() ? memo_hits : memo_misses);
      if (it != memo_.end()) {
        uint64_t id = 0;
        std::from_chars(payload.data() + kIdPrefix.size(), payload.data() + payload.size(), id);
        std::string cached;
        bool hit = false;
        {
          ScopedSpan span(tracer, "serve.cache");
          hit = cache_.TryGet(it->second, &cached);
        }
        if (hit) return Respond(SpliceCachedResponse(id, cached), tracer);
      }
    }

    *parsed = payload;
    Result<RequestEnvelope> envelope = [&] {
      ScopedSpan span(tracer, "serve.parse");
      return RequestEnvelope::Parse(payload);
    }();
    if (!envelope.ok()) {
      probcon::serve::ResponseEnvelope error;
      error.status = envelope.status();
      return Respond(error.Serialize(), tracer);
    }
    std::string key;
    {
      ScopedSpan span(tracer, "serve.canonicalize");
      key = envelope->request.CanonicalKey();
    }
    if (scanned) memo_.emplace(std::move(memo_text), key);
    std::string cached;
    bool hit = false;
    {
      ScopedSpan span(tracer, "serve.cache");
      hit = cache_.TryGet(key, &cached);
    }
    if (hit) return Respond(SpliceCachedResponse(envelope->id, cached), tracer);

    // The daemon hands every request that misses here to the pool.
    ++pool_hops;
    bool was_cached = false;
    Result<std::string> text = [&] {
      ScopedSpan span(tracer, "serve.cache");
      return cache_.GetOrCompute(
          key,
          [&]() -> Result<std::string> {
            Result<Json> result = [&] {
              ScopedSpan engine_span(tracer, "serve.engine");
              return probcon::serve::ExecuteRequest(envelope->request, nullptr,
                                                    engine_progress_);
            }();
            *computed = envelope->request;
            if (!result.ok()) return result.status();
            ScopedSpan write_span(tracer, "common.json.write");
            return probcon::WriteJson(*result);
          },
          &was_cached);
    }();
    probcon::serve::ResponseEnvelope response;
    response.id = envelope->id;
    if (text.ok()) {
      response.cached = was_cached;
      ScopedSpan span(tracer, "common.json.reparse");
      Result<Json> result = probcon::ParseJson(*text, "cached result");
      CHECK(result.ok()) << result.status().ToString();
      response.result = *std::move(result);
    } else {
      response.status = text.status();
    }
    std::string out = [&] {
      ScopedSpan span(tracer, "serve.serialize");
      return response.Serialize();
    }();
    return Respond(std::move(out), tracer);
  }

  probcon::serve::QueryCache& cache() { return cache_; }
  const Progress& progress() const { return progress_; }

  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t pool_hops = 0;

 private:
  std::string Respond(std::string response, Tracer* tracer) {
    ScopedSpan span(tracer, "serve.framing");
    last_frame_ = probcon::serve::EncodeFrame(response);
    return response;
  }

  probcon::serve::QueryCache cache_;
  probcon::serve::FrameDecoder decoder_;
  std::unordered_map<std::string, std::string> memo_;  // Memo text -> canonical key.
  Progress progress_;
  probcon::serve::EngineProgress engine_progress_;
  std::string last_frame_;
};

// The engine calls underneath ExecuteRequest for one request, each in its own span.
void ProbeEngines(const ServeRequest& request, Tracer* tracer, Progress* counts) {
  using probcon::AnalysisMethod;
  using probcon::ReliabilityAnalyzer;
  ScopedSpan root(tracer, "engine.probe");
  const auto count_dp = [&](const ReliabilityAnalyzer& analyzer,
                            const probcon::FailurePredicate& predicate) {
    ScopedSpan span(tracer, "analysis.count_dp");
    (void)analyzer.TryEventProbability(predicate, AnalysisMethod::kAuto);
  };
  const auto pbft_reports = [&](const ReliabilityAnalyzer& analyzer, int n) {
    const probcon::PbftConfig config = probcon::PbftConfig::Standard(n);
    count_dp(analyzer, probcon::MakePbftSafePredicate(config));
    count_dp(analyzer, probcon::MakePbftLivePredicate(config));
    count_dp(analyzer, probcon::MakePbftSafeAndLivePredicate(config));
  };
  const std::vector<double>& probabilities = request.fault.probabilities;
  const int n = request.fault.n();
  probcon::CtmcSolveOptions ctmc;
  const probcon::FleetProtocol protocol =
      request.protocol == "pbft" ? probcon::FleetProtocol::kPbft : probcon::FleetProtocol::kRaft;
  switch (request.kind) {
    case RequestKind::kTable1:
      pbft_reports(ReliabilityAnalyzer::ForIndependentNodes(probabilities), n);
      break;
    case RequestKind::kTable2:
      count_dp(ReliabilityAnalyzer::ForIndependentNodes(probabilities),
               probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(n)));
      break;
    case RequestKind::kEndToEnd:
      if (request.protocol == "raft") {
        count_dp(ReliabilityAnalyzer::ForIndependentNodes(probabilities),
                 probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(n)));
      } else {
        pbft_reports(ReliabilityAnalyzer::ForIndependentNodes(probabilities), n);
      }
      break;
    case RequestKind::kQuorumSize: {
      ScopedSpan span(tracer, "probnative.quorum_sizer");
      if (request.protocol == "raft") {
        (void)probcon::SizeRaftQuorums(
            probabilities, probcon::Probability::FromProbability(request.target_live));
      } else {
        (void)probcon::SizePbftQuorums(
            probabilities, probcon::Probability::FromProbability(request.target_safe),
            probcon::Probability::FromProbability(request.target_live));
      }
      break;
    }
    case RequestKind::kMonteCarlo: {
      std::unique_ptr<probcon::JointFailureModel> model;
      int model_n = n;
      if (request.beta_binomial) {
        model_n = request.beta_n;
        model = std::make_unique<probcon::BetaBinomialFailureModel>(model_n, request.alpha,
                                                                    request.beta);
      } else {
        model = std::make_unique<probcon::IndependentFailureModel>(probabilities);
      }
      const ReliabilityAnalyzer analyzer{std::move(model)};
      probcon::MonteCarloOptions options;
      options.trials = request.trials;
      options.seed = request.seed;
      options.progress = &counts->mc_trials;
      ScopedSpan span(tracer, "analysis.montecarlo");
      if (request.protocol == "raft") {
        (void)analyzer.TryEstimateEventProbability(
            probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(model_n)), options);
      } else {
        (void)analyzer.TryEstimateEventProbability(
            probcon::MakePbftSafeAndLivePredicate(probcon::PbftConfig::Standard(model_n)),
            options);
      }
      break;
    }
    case RequestKind::kPlacement: {
      probcon::PlacementResult best;
      {
        ScopedSpan span(tracer, "analysis.placement");
        best = probcon::OptimizeRackPlacement(request.node_probabilities,
                                              request.rack_probabilities);
      }
      // One exact enumeration of the winning assignment's failure-domain model: the
      // per-configuration cost the search pays r^n times.
      const int nodes = static_cast<int>(request.node_probabilities.size());
      const ReliabilityAnalyzer analyzer(std::make_unique<probcon::FailureDomainModel>(
          request.node_probabilities, best.rack_of, request.rack_probabilities));
      ScopedSpan span(tracer, "analysis.enumeration");
      (void)analyzer.TryEventProbability(
          probcon::MakeRaftLivePredicate(probcon::RaftConfig::Standard(nodes)),
          AnalysisMethod::kExact, nullptr, &counts->enum_configs);
      break;
    }
    case RequestKind::kAvailability: {
      const probcon::FleetModel model(request.fleet, protocol);
      {
        ScopedSpan span(tracer, "lifecycle.steady_state");
        (void)model.TrySteadyStateAvailability(false, ctmc);
      }
      ScopedSpan span(tracer, "lifecycle.mttu");
      (void)model.TryMeanTimeToUnavailability(false, ctmc);
      break;
    }
    case RequestKind::kMissionReliability: {
      if (request.schedule_mode) break;  // The workloads send fleet missions only.
      const probcon::FleetModel model(request.fleet, protocol);
      ScopedSpan span(tracer, "lifecycle.mission");
      (void)model.TryMissionReliability(request.mission_hours, request.reconfiguration, ctmc);
      break;
    }
    case RequestKind::kRepairSweep: {
      std::optional<double> target;
      if (request.sweep_target_availability > 0.0) target = request.sweep_target_availability;
      ScopedSpan span(tracer, "lifecycle.repair_sweep");
      (void)probcon::TryRepairRateSweep(request.fleet, protocol, request.sweep_repair_rates,
                                        target, ctmc);
      break;
    }
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kHealth:
      break;
  }
}

// The first span ProbeEngines records for a request of `kind`.
const char* EngineFamily(RequestKind kind) {
  switch (kind) {
    case RequestKind::kTable1:
    case RequestKind::kTable2:
    case RequestKind::kEndToEnd:
      return "analysis.count_dp";
    case RequestKind::kQuorumSize:
      return "probnative.quorum_sizer";
    case RequestKind::kMonteCarlo:
      return "analysis.montecarlo";
    case RequestKind::kPlacement:
      return "analysis.placement";
    case RequestKind::kAvailability:
      return "lifecycle.steady_state";
    case RequestKind::kMissionReliability:
      return "lifecycle.mission";
    case RequestKind::kRepairSweep:
      return "lifecycle.repair_sweep";
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kHealth:
      break;
  }
  return "";
}

}  // namespace

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& entry = totals[spans_[i].name];
    const auto duration = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    entry.total_ns += duration;
    entry.self_ns += duration - child_ns[i];
    ++entry.calls;
  }
  return totals;
}

Status Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return probcon::UnavailableError("cannot write " + path);
  out << "span,parent,request,name,start_ns,end_ns\n";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << span.parent << ',' << span.request << ',' << span.name << ','
        << span.start_ns - origin << ',' << span.end_ns - origin << '\n';
  }
  return out.good() ? Status::Ok() : probcon::UnavailableError("short write to " + path);
}

ReplayResult Replay(const Workload& workload, uint64_t seed, size_t count, Tracer* tracer) {
  probcon::ScopedThreadPool pool(kReplayWorkers);
  ServingPath path;
  ReplayResult result;
  // The requests that reached the engine, and (traced) the payloads that were parsed, with
  // the id they were served under.
  std::vector<std::pair<uint64_t, ServeRequest>> engine_requests;
  std::vector<std::pair<uint64_t, std::string>> parsed_payloads;
  const auto serve = [&](uint64_t id, const std::string& suffix) {
    if (tracer != nullptr) tracer->SetRequest(id);
    std::optional<ServeRequest> computed;
    std::string parsed;
    std::string response = path.Serve(probcon::serve::EncodeFrame(EnvelopeText(id, suffix)),
                                      tracer, &computed, &parsed);
    if (AfterId(response).rfind(", \"status\": \"OK\"", 0) != 0) ++result.failed;
    if (computed.has_value() && engine_requests.size() < kMaxProbes) {
      engine_requests.emplace_back(id, *std::move(computed));
    }
    if (tracer != nullptr && !parsed.empty()) parsed_payloads.emplace_back(id, std::move(parsed));
    return response;
  };
  const probcon::ThreadPool::Stats pool_before = pool.pool().GetStats();
  result.digests.reserve(count);
  const int64_t start = NowNs();
  for (size_t i = 0; i < workload.warmup.size(); ++i) serve(kControlIdBase + i, workload.warmup[i]);
  for (size_t i = 0; i < count; ++i) {
    const std::string response = serve(i + 1, workload.requests[i % workload.requests.size()]);
    result.digests.push_back(Fnv1a(AfterId(response)));
  }
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  const probcon::ThreadPool::Stats pool_after = pool.pool().GetStats();

  const auto ops = static_cast<double>(workload.warmup.size() + count);
  const probcon::serve::QueryCache::Stats cache = path.cache().snapshot();
  result.counts = {path.memo_hits, path.memo_misses, cache.hits, cache.misses};
  std::map<std::string, double>& m = result.metrics;
  m["engine.mc_trials_per_op"] = static_cast<double>(path.progress().mc_trials.load()) / ops;
  m["engine.enum_configs_per_op"] =
      static_cast<double>(path.progress().enum_configs.load()) / ops;
  m["engine.ctmc_steps_per_op"] = static_cast<double>(path.progress().ctmc_steps.load()) / ops;
  m["exec.pool.tasks_per_op"] =
      static_cast<double>(path.pool_hops + pool_after.tasks_submitted -
                          pool_before.tasks_submitted) /
      ops;
  if (tracer == nullptr) return result;

  // Probes, after the replay so they do not count in its wall time. First the JSON share of
  // envelope parsing: ParseJson on every payload that serve.parse parsed.
  for (const auto& [id, payload] : parsed_payloads) {
    tracer->SetRequest(id);
    ScopedSpan span(tracer, "common.json.parse");
    (void)probcon::ParseJson(payload, "serve request");
  }
  // Then the engines: the requests that reached the engine, then reference requests for the
  // engines none of them reached.
  Progress counts;
  for (const auto& [id, request] : engine_requests) {
    tracer->SetRequest(id);
    ProbeEngines(request, tracer, &counts);
  }
  const std::map<std::string, Tracer::Totals> reached = tracer->Aggregate();
  const std::vector<std::string> references = ReferenceRequests(seed);
  for (size_t i = 0; i < references.size(); ++i) {
    Result<RequestEnvelope> envelope = RequestEnvelope::Parse(EnvelopeText(1, references[i]));
    CHECK(envelope.ok()) << envelope.status().ToString();
    if (reached.count(EngineFamily(envelope->request.kind)) != 0) continue;
    tracer->SetRequest(0);  // A reference probe serves no request.
    ProbeEngines(envelope->request, tracer, &counts);
    ++result.reference_probes;
  }

  const std::map<std::string, Tracer::Totals> totals = tracer->Aggregate();
  const auto self_us_per_op = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns * 1e-3 / ops;
  };
  const auto per_call = [&](const char* name, double scale) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : it->second.total_ns * scale / static_cast<double>(it->second.calls);
  };
  const auto per_unit = [&](const char* name, uint64_t units) {
    const auto it = totals.find(name);
    return it == totals.end() || units == 0 ? 0.0
                                            : it->second.total_ns / static_cast<double>(units);
  };
  for (const char* layer :
       {"serve.framing", "serve.parse", "common.json.parse",
        "serve.canonicalize", "serve.cache", "serve.engine", "common.json.write",
        "common.json.reparse", "serve.serialize"}) {
    m[std::string(layer) + ".us_per_op"] = self_us_per_op(layer);
  }
  m["analysis.count_dp.us_per_call"] = per_call("analysis.count_dp", 1e-3);
  m["probnative.quorum_sizer.us_per_call"] = per_call("probnative.quorum_sizer", 1e-3);
  m["lifecycle.steady_state.ms_per_solve"] = per_call("lifecycle.steady_state", 1e-6);
  m["lifecycle.mttu.ms_per_solve"] = per_call("lifecycle.mttu", 1e-6);
  m["lifecycle.mission.ms_per_solve"] = per_call("lifecycle.mission", 1e-6);
  m["lifecycle.repair_sweep.ms_per_call"] = per_call("lifecycle.repair_sweep", 1e-6);
  m["analysis.placement.ms_per_call"] = per_call("analysis.placement", 1e-6);
  m["analysis.montecarlo.ns_per_trial"] = per_unit("analysis.montecarlo", counts.mc_trials);
  m["analysis.enumeration.ns_per_config"] =
      per_unit("analysis.enumeration", counts.enum_configs);
  return result;
}

InProcessResult ServeInProcess(const Workload& workload, size_t count) {
  probcon::ScopedThreadPool pool(kReplayWorkers);
  probcon::MetricsRegistry metrics;
  InProcessResult result;
  {
    probcon::serve::QueryServer server(probcon::serve::ServerOptions{}, &metrics);
    for (size_t i = 0; i < workload.warmup.size(); ++i) {
      (void)server.Handle(EnvelopeText(kControlIdBase + i, workload.warmup[i]));
    }
    result.digests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const std::string response =
          server.Handle(EnvelopeText(i + 1, workload.requests[i % workload.requests.size()]));
      result.digests.push_back(Fnv1a(AfterId(response)));
    }
  }
  const auto counter = [&](const char* name) { return metrics.GetCounter(name).value(); };
  result.counts = {counter("serve.text_memo.hits"), counter("serve.text_memo.misses"),
                   counter("serve.cache.hits"), counter("serve.cache.misses")};
  return result;
}

}  // namespace probcond_bench
