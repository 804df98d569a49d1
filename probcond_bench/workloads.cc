#include "probcond_bench/workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/exec/parallel.h"
#include "src/serve/spec.h"

namespace probcond_bench {
namespace {

using probcon::Json;
using probcon::Rng;

// Upper bounds on closed-loop answer rates, used only to size the pools of distinct
// requests; a daemon faster than its bound ends the closed phase when the pool runs out.
constexpr double kWhatifMaxQps = 45000.0;
constexpr double kEstimatesMaxQps = 600.0;

std::string Suffix(std::string_view kind, const Json& params) {
  const std::string text = probcon::serve::RequestEnvelope::Serialize(0, kind, params, 0.0);
  return text.substr(kIdPrefix.size() + 1);  // Drop the prefix and the id digit "0".
}

double Uniform(Rng& rng, double lo, double hi) { return lo + (hi - lo) * rng.NextDouble(); }

// Log-uniform draw, for rates and probabilities spanning decades.
double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(Uniform(rng, std::log(lo), std::log(hi)));
}

int IntIn(Rng& rng, int lo, int hi) { return static_cast<int>(rng.NextInRange(lo, hi)); }

Json UniformFault(int n, double p) {
  Json fault = Json::Object();
  fault.Set("n", Json::Number(n));
  fault.Set("p", Json::Number(p));
  return fault;
}

// A Weibull or bathtub curve with per-node ages, resolving to window failure
// probabilities of at most a few percent.
Json CurveFault(Rng& rng, int n) {
  Json curve = Json::Object();
  if (rng.NextBernoulli(0.5)) {
    curve.Set("kind", Json::String("weibull"));
    curve.Set("shape", Json::Number(Uniform(rng, 0.7, 2.0)));
    curve.Set("scale", Json::Number(LogUniform(rng, 1e5, 5e5)));
  } else {
    curve.Set("kind", Json::String("bathtub"));
    curve.Set("infant_shape", Json::Number(Uniform(rng, 0.4, 0.6)));
    curve.Set("infant_scale", Json::Number(LogUniform(rng, 1e6, 1e7)));
    curve.Set("useful_life_rate", Json::Number(LogUniform(rng, 1e-6, 1e-5)));
    curve.Set("wearout_shape", Json::Number(Uniform(rng, 3.0, 5.0)));
    curve.Set("wearout_scale", Json::Number(LogUniform(rng, 8e4, 1.5e5)));
  }
  Json ages = Json::Array();
  for (int i = 0; i < n; ++i) {
    ages.Append(Json::Number(IntIn(rng, 0, 50000)));
  }
  static constexpr int kWindows[] = {168, 336, 720};
  Json fault = Json::Object();
  fault.Set("ages", std::move(ages));
  fault.Set("curve", std::move(curve));
  fault.Set("window", Json::Number(kWindows[rng.NextBelow(3)]));
  return fault;
}

// Quorum targets the drawn probabilities can always meet with standard quorums.
void SetQuorumTargets(Rng& rng, Json* params) {
  params->Set("target_live", Json::Number(Uniform(rng, 0.9, 0.95)));
  params->Set("target_safe", Json::Number(Uniform(rng, 0.9, 0.95)));
}

// A fleet of classes with the given node counts; lumped states = prod(count + 1). A
// repair rate range of {0, 0} leaves the rate out (repair sweeps supply their own).
Json Fleet(Rng& rng, const std::vector<int>& counts, double repair_lo, double repair_hi,
           int servers) {
  Json classes = Json::Array();
  for (const int count : counts) {
    Json cls = Json::Object();
    cls.Set("count", Json::Number(count));
    cls.Set("failure_rate", Json::Number(LogUniform(rng, 1e-5, 1e-3)));
    classes.Append(std::move(cls));
  }
  Json fleet = Json::Object();
  fleet.Set("classes", std::move(classes));
  if (repair_hi > 0.0) {
    fleet.Set("repair_rate", Json::Number(LogUniform(rng, repair_lo, repair_hi)));
  }
  fleet.Set("repair_servers", Json::Number(servers));
  return fleet;
}

// Availability fleets: the dense solves cost the same at any rate, so rates vary widely.
Json AnyFleet(Rng& rng, const std::vector<int>& counts) {
  return Fleet(rng, counts, 0.05, 0.5, IntIn(rng, 1, 3));
}

const char* Protocol(Rng& rng) { return rng.NextBernoulli(0.5) ? "raft" : "pbft"; }

// --- dashboard --------------------------------------------------------------------------

std::vector<std::string> DashboardKeys(Rng& rng) {
  std::vector<std::string> keys;
  for (const int n : {4, 5, 7, 9, 11, 13}) {
    Json params = Json::Object();
    params.Set("fault", UniformFault(n, LogUniform(rng, 1e-3, 2e-2)));
    keys.push_back(Suffix("table1", params));
  }
  for (const int n : {3, 5, 7, 9, 11, 13}) {
    Json params = Json::Object();
    params.Set("fault", UniformFault(n, LogUniform(rng, 1e-3, 2e-2)));
    keys.push_back(Suffix("table2", params));
  }
  for (const int n : {4, 5, 7, 9, 11, 13}) {
    Json params = Json::Object();
    params.Set("protocol", Json::String(n % 2 == 0 ? "raft" : "pbft"));
    params.Set("fault", UniformFault(n, LogUniform(rng, 1e-3, 2e-2)));
    SetQuorumTargets(rng, &params);
    keys.push_back(Suffix("quorum_size", params));
  }
  for (const auto& [protocol, n] : std::vector<std::pair<const char*, int>>{
           {"raft", 3}, {"raft", 5}, {"pbft", 4}, {"pbft", 7}}) {
    Json params = Json::Object();
    params.Set("protocol", Json::String(protocol));
    params.Set("fault", UniformFault(n, LogUniform(rng, 1e-3, 2e-2)));
    params.Set("mttr_hours", Json::Number(Uniform(rng, 0.5, 4.0)));
    keys.push_back(Suffix("end_to_end", params));
  }
  // At most 64 lumped states: 16, 36, 32 and 64.
  for (const std::vector<int>& counts :
       std::vector<std::vector<int>>{{3, 3}, {5, 5}, {3, 7}, {7, 7}}) {
    Json params = Json::Object();
    params.Set("protocol", Json::String(Protocol(rng)));
    params.Set("fleet", AnyFleet(rng, counts));
    keys.push_back(Suffix("availability", params));
  }
  return keys;
}

Workload Dashboard(uint64_t seed) {
  Rng rng(probcon::DeriveStreamSeed(seed, 1));
  Workload w;
  w.name = "dashboard";
  w.connections = 4;
  w.warmup = DashboardKeys(rng);
  w.cyclic = true;
  constexpr size_t kSequence = 8192;
  w.requests.reserve(kSequence);
  for (size_t i = 0; i < kSequence; ++i) {
    w.requests.push_back(w.warmup[rng.NextBelow(w.warmup.size())]);
  }
  w.phases = {{LoopMode::kOpen, 0.5, 40000.0, 0}, {LoopMode::kClosed, 0.5, 0.0, 64}};
  w.check_share = 1.0;
  w.replay_count = 20000;
  w.rss_at_answers = 100000;
  return w;
}

// --- whatif -------------------------------------------------------------------------------

std::string WhatifRequest(Rng& rng, size_t index) {
  Json params = Json::Object();
  switch (index % 4) {
    case 0: {
      params.Set("fault", CurveFault(rng, IntIn(rng, 4, 15)));
      return Suffix("table1", params);
    }
    case 1: {
      params.Set("fault", CurveFault(rng, IntIn(rng, 3, 15)));
      return Suffix("table2", params);
    }
    case 2: {
      const char* protocol = Protocol(rng);
      params.Set("protocol", Json::String(protocol));
      params.Set("fault", CurveFault(rng, IntIn(rng, protocol[0] == 'p' ? 4 : 3, 15)));
      SetQuorumTargets(rng, &params);
      return Suffix("quorum_size", params);
    }
    default: {
      const char* protocol = Protocol(rng);
      params.Set("protocol", Json::String(protocol));
      params.Set("fault", CurveFault(rng, IntIn(rng, protocol[0] == 'p' ? 4 : 3, 15)));
      params.Set("mttr_hours", Json::Number(Uniform(rng, 0.5, 4.0)));
      return Suffix("end_to_end", params);
    }
  }
}

// `count` distinct requests: request i is make(rng, i) with rng seeded from (stream, i),
// so they are drawn in parallel; `i` fixes the request's shape and rng its values. The
// rare duplicate is redrawn from a stream past the end.
template <typename Make>
std::vector<std::string> Distinct(uint64_t stream, size_t count, Make make) {
  std::vector<std::string> out(count);
  probcon::ParallelFor(0, count, 1024, [&](uint64_t begin, uint64_t end, uint64_t) {
    for (uint64_t i = begin; i < end; ++i) {
      Rng rng(probcon::DeriveStreamSeed(stream, i));
      out[i] = make(rng, i);
    }
  });
  std::unordered_set<std::string_view> seen;
  seen.reserve(count);
  uint64_t spare = count;
  for (size_t i = 0; i < count; ++i) {
    while (!seen.insert(out[i]).second) {
      Rng rng(probcon::DeriveStreamSeed(stream, spare++));
      out[i] = make(rng, i);
    }
  }
  return out;
}

// A warm-up of `warmup` requests followed by `timed` requests, all distinct.
template <typename Make>
void DistinctPools(uint64_t seed, size_t warmup, size_t timed, Make make, Workload* w) {
  std::vector<std::string> pool = Distinct(seed, warmup + timed, make);
  w->warmup.assign(std::make_move_iterator(pool.begin()),
                   std::make_move_iterator(pool.begin() + static_cast<std::ptrdiff_t>(warmup)));
  pool.erase(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(warmup));
  w->requests = std::move(pool);
}

// Pool size for a closed loop of distinct requests running `seconds` at up to `max_qps`.
size_t PoolSize(double seconds, double max_qps) {
  return static_cast<size_t>(std::ceil(max_qps * seconds)) + 64;
}

Workload Whatif(uint64_t seed, double seconds) {
  Workload w;
  w.name = "whatif";
  w.connections = 4;
  // A closed loop only: an open loop at a fixed rate leaves the reactor and the workers
  // idle between requests, so each request pays two cross-thread wake-ups, and on a
  // virtual machine those follow host steal (the p50 doubled at 13% steal). Eight requests
  // outstanding keep the pipeline busy without deep queues.
  w.phases = {{LoopMode::kClosed, 1.0, 0.0, 8}};
  DistinctPools(probcon::DeriveStreamSeed(seed, 2), 256,
                PoolSize(seconds, kWhatifMaxQps), WhatifRequest, &w);
  w.check_share = 1.0;
  w.replay_count = 5000;
  w.rss_at_answers = 40000;
  return w;
}

// --- fleet CTMC queries (reference set only) ----------------------------------------------

// Five shapes: a repair sweep, availability on 100, 169 and 256 lumped states, and a
// mission on 216. No workload sends them (see README.md); the replay's reference set times
// the lifecycle, markov and linalg engines on them.
std::string FleetRequest(Rng& rng, size_t index) {
  Json params = Json::Object();
  params.Set("protocol", Json::String(Protocol(rng)));
  switch (index % 5) {
    case 0: {
      params.Set("fleet", Fleet(rng, {5, 5}, 0.0, 0.0, IntIn(rng, 1, 3)));  // 36 states x 4
      const double min_rate = LogUniform(rng, 0.02, 0.1);
      params.Set("min_rate", Json::Number(min_rate));
      params.Set("max_rate", Json::Number(min_rate * Uniform(rng, 5.0, 20.0)));
      params.Set("points", Json::Number(4));
      return Suffix("repair_sweep", params);
    }
    case 1:
      params.Set("fleet", AnyFleet(rng, {9, 9}));  // 100 states
      return Suffix("availability", params);
    case 2:
      params.Set("fleet", AnyFleet(rng, {12, 12}));  // 169 states
      return Suffix("availability", params);
    case 3:
      // 216 states. Uniformization costs terms * states^2 with terms ~ rate * hours, so
      // the repair rate, technician count and mission length stay in narrow bands.
      params.Set("fleet", Fleet(rng, {5, 5, 5}, 0.2, 0.22, 2));
      params.Set("mission_hours", Json::Number(IntIn(rng, 700, 720)));
      return Suffix("mission_reliability", params);
    default:
      params.Set("fleet", AnyFleet(rng, {15, 15}));  // 256 states
      return Suffix("availability", params);
  }
}

// --- estimates ----------------------------------------------------------------------------

std::string EstimatesRequest(Rng& rng, size_t index) {
  Json params = Json::Object();
  const auto placement = [&](int n) {
    Json nodes = Json::Array();
    for (int i = 0; i < n; ++i) nodes.Append(Json::Number(LogUniform(rng, 1e-3, 3e-2)));
    Json racks = Json::Array();
    for (int r = 0; r < 3; ++r) racks.Append(Json::Number(LogUniform(rng, 1e-4, 1e-2)));
    params.Set("node_probabilities", std::move(nodes));
    params.Set("rack_probabilities", std::move(racks));
    return Suffix("placement", params);
  };
  const auto montecarlo = [&](bool beta_binomial) {
    const char* protocol = Protocol(rng);
    params.Set("protocol", Json::String(protocol));
    const int n = 9;
    if (beta_binomial) {
      Json model = Json::Object();
      model.Set("kind", Json::String("beta_binomial"));
      model.Set("n", Json::Number(n));
      model.Set("alpha", Json::Number(Uniform(rng, 0.5, 2.0)));
      model.Set("beta", Json::Number(Uniform(rng, 50.0, 200.0)));
      params.Set("model", std::move(model));
    } else {
      params.Set("fault", UniformFault(n, LogUniform(rng, 1e-3, 3e-2)));
    }
    params.Set("trials", Json::Number(200000));
    params.Set("seed", Json::Number(rng.Next() >> 12));
    return Suffix("montecarlo", params);
  };
  switch (index % 5) {
    case 0:
      return montecarlo(false);
    case 1:
      return placement(5);
    case 2:
      return montecarlo(true);
    case 3:
      return placement(6);
    default:
      return placement(7);
  }
}

Workload Estimates(uint64_t seed, double seconds) {
  Workload w;
  w.name = "estimates";
  // One caller: each estimate's ParallelFor already spreads over both pool workers, and a
  // second caller would make every latency depend on what the other one was running.
  w.connections = 1;
  w.phases = {{LoopMode::kClosed, 1.0, 0.0, 1}};
  DistinctPools(probcon::DeriveStreamSeed(seed, 4), 5,
                PoolSize(seconds, kEstimatesMaxQps), EstimatesRequest, &w);
  w.check_share = 0.25;
  w.replay_count = 25;
  w.rss_at_answers = 250;
  return w;
}

}  // namespace

std::string EnvelopeText(uint64_t id, const std::string& suffix) {
  std::string text(kIdPrefix);
  text += std::to_string(id);
  text += suffix;
  return text;
}

std::vector<std::string> ReferenceRequests(uint64_t seed) {
  Rng rng(probcon::DeriveStreamSeed(seed, 5));
  std::vector<std::string> out;
  for (size_t i = 0; i < 4; ++i) out.push_back(WhatifRequest(rng, i));
  for (size_t i = 0; i < 5; ++i) out.push_back(FleetRequest(rng, i));
  for (size_t i = 0; i < 5; ++i) out.push_back(EstimatesRequest(rng, i));
  return out;
}

probcon::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed, double seconds) {
  if (name == "dashboard") return Dashboard(seed);
  if (name == "whatif") return Whatif(seed, seconds);
  if (name == "estimates") return Estimates(seed, seconds);
  return probcon::InvalidArgumentError("unknown workload \"" + std::string(name) + "\"");
}

}  // namespace probcond_bench
