// probcond_bench — one run of the probcond benchmark on one workload.
//
//   probcond_bench --daemon <probcond> --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> [--trace-dir <dir>]
//
// A run sets the daemon up kSetups times (spawn, "listening" line, connect, warm-up) and
// reports the median set-up time over the set-ups the host left alone (QuietMedian); the
// last daemon then serves the timed window, one
// phase after another. Every answer is checked against WriteJson(ExecuteRequest(...))
// computed in-process from the same build (all of them, or a seeded share for the
// workloads whose engines would double the run), and the daemon's own request count must
// equal the generator's. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics: the daemon's `stats` over the
// same untraced window plus the in-process replay (replay.h). The lines before it are the
// run record: machine facts, host steal time, generator lateness, p99 latency with its
// sample count, and the reconciliation of the daemon's stage sum with its latency and with
// the client's. Exit status 1 on a wrong answer, a books mismatch or a dead daemon.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probcond_bench/daemon.h"
#include "probcond_bench/loadgen.h"
#include "probcond_bench/replay.h"
#include "probcond_bench/workloads.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/exec/parallel.h"
#include "src/exec/thread_pool.h"
#include "src/serve/engine.h"
#include "src/serve/spec.h"

namespace probcond_bench {
namespace {

using probcon::Json;
using probcon::Result;
using probcon::Status;

// The daemon's sizing: 1 reactor and 2 pool workers, plus the one generator thread, fit a
// 4-core box. The transport caps each connection at 16 requests in flight, so at most
// 4 x 16 reach the server, below its admission limit: overload queues in the sockets
// instead of being shed (sheds trip brownout, which changes the work done).
constexpr int kDaemonWorkers = 2;
const std::vector<std::string> kDaemonArgs = {
    "--port", "0", "--reactors", "1", "--max-inflight-per-conn", "16", "--max-inflight", "128"};
// Warm-up requests outstanding per connection: few enough that none of them queues, so
// the first stats window (warm-up plus the first phase) reconciles with the client.
constexpr int kWarmupPerConnection = 1;
// Set-ups per run: one takes a few milliseconds, so a single one would not repeat within a
// tenth; the median of many does.
constexpr int kSetups = 31;
// Rounds of the untraced and the traced replay behind trace.overhead_ratio.
constexpr int kReplayRounds = 3;

struct Options {
  std::string daemon;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_us", "us"}, {"throughput_qps", "1/s"}, {"server_cpu_us_per_op", "us"},
    {"setup_s", "s"},         {"peak_rss_mib", "MiB"},   {"ok_ratio", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.framing.us_per_op", "us"},
    {"serve.text_memo.hit_ratio", "ratio"},
    {"serve.parse.us_per_op", "us"},
    {"common.json.parse.us_per_op", "us"},
    {"serve.canonicalize.us_per_op", "us"},
    {"serve.cache.us_per_op", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.engine.us_per_op", "us"},
    {"common.json.write.us_per_op", "us"},
    {"common.json.reparse.us_per_op", "us"},
    {"serve.serialize.us_per_op", "us"},
    {"serve.daemon.us_per_op", "us"},
    {"serve.stage.parse.us_per_op", "us"},
    {"serve.stage.canonicalize.us_per_op", "us"},
    {"serve.stage.cache.us_per_op", "us"},
    {"serve.stage.engine.us_per_op", "us"},
    {"serve.stage.serialize.us_per_op", "us"},
    {"serve.stage.write.us_per_op", "us"},
    {"serve.unattributed.us_per_op", "us"},
    {"serve.transport.us_per_op", "us"},
    {"analysis.count_dp.us_per_call", "us"},
    {"probnative.quorum_sizer.us_per_call", "us"},
    {"lifecycle.steady_state.ms_per_solve", "ms"},
    {"lifecycle.mttu.ms_per_solve", "ms"},
    {"lifecycle.mission.ms_per_solve", "ms"},
    {"lifecycle.repair_sweep.ms_per_call", "ms"},
    {"engine.ctmc_steps_per_op", "count"},
    {"analysis.montecarlo.ns_per_trial", "ns"},
    {"analysis.enumeration.ns_per_config", "ns"},
    {"analysis.placement.ms_per_call", "ms"},
    {"engine.mc_trials_per_op", "count"},
    {"engine.enum_configs_per_op", "count"},
    {"exec.pool.tasks_per_op", "count"},
    {"exec.pool.steals_per_op", "count"},
    {"exec.pool.busy_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* kStages[] = {"parse", "canonicalize", "cache", "engine", "serialize",
                                   "write"};

Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return probcon::InvalidArgumentError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--daemon") {
      options.daemon = value;
    } else if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return probcon::InvalidArgumentError("unknown flag " + flag);
    }
  }
  if (options.daemon.empty() || options.workload.empty() || !(options.seconds > 0.0)) {
    return probcon::InvalidArgumentError(
        "usage: probcond_bench --daemon <probcond> --workload <name> --seed <n> "
        "--seconds <s> --trace <0|1>");
  }
  return options;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<size_t>(std::min<double>(
      static_cast<double>(values.size() - 1), std::floor(q * static_cast<double>(values.size()))));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  return values[k];
}

// The envelope bytes after the id that the daemon must send for `suffix`.
Result<std::string> ExpectedAfterId(const std::string& suffix, bool cached) {
  Result<probcon::serve::RequestEnvelope> envelope =
      probcon::serve::RequestEnvelope::Parse(EnvelopeText(1, suffix));
  if (!envelope.ok()) return envelope.status();
  Result<Json> result = probcon::serve::ExecuteRequest(envelope->request, nullptr);
  if (!result.ok()) return result.status();
  return std::string(", \"status\": \"OK\", \"cached\": ") + (cached ? "true" : "false") +
         ", \"result\": " + probcon::WriteJson(*result) + "}";
}

// Digests of the expected answers for `suffixes`, computed in parallel; 0 marks a request
// whose in-process answer was not OK.
std::vector<uint64_t> ExpectedDigests(const std::vector<const std::string*>& suffixes,
                                      bool cached) {
  std::vector<uint64_t> digests(suffixes.size(), 0);
  probcon::ParallelFor(0, suffixes.size(), 16, [&](uint64_t begin, uint64_t end, uint64_t) {
    for (uint64_t i = begin; i < end; ++i) {
      Result<std::string> expected = ExpectedAfterId(*suffixes[i], cached);
      digests[i] = expected.ok() ? Fnv1a(*expected) : 0;
    }
  });
  return digests;
}

// The daemon's `stats` over one window (counters and histograms restart at each reset).
struct DaemonStats {
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t latency_count = 0;
  double latency_sum_ms = 0.0;
  // The exec pool's telemetry, cumulative since the daemon started (`stats` does not
  // reset it): a window's share is the difference from the previous reading.
  uint64_t pool_steals = 0;
  double pool_busy_s = 0.0;
  std::map<std::string, double> stage_sum_ms;  // parse, canonicalize, ... , write
};

Result<DaemonStats> ParseStats(const std::string& response) {
  Result<Json> root = probcon::ParseJson(response, "stats response");
  if (!root.ok()) return root.status();
  const Json* result = root->Find("result");
  const Json* metrics = result != nullptr ? result->Find("metrics") : nullptr;
  if (metrics == nullptr) return probcon::InternalError("stats response without metrics");
  DaemonStats stats;
  const Json* counters = metrics->Find("counters");
  const auto counter = [&](const char* name) -> uint64_t {
    const Json* value = counters != nullptr ? counters->Find(name) : nullptr;
    return value != nullptr ? static_cast<uint64_t>(value->NumberValue()) : 0;
  };
  stats.requests = counter("serve.requests");
  stats.shed = counter("serve.shed");
  stats.errors = counter("serve.errors");
  stats.degraded = counter("serve.degraded");
  stats.pool_steals = counter("exec.pool.steals");
  if (const Json* gauges = metrics->Find("gauges"); gauges != nullptr) {
    constexpr std::string_view kBusy = ".busy_seconds";
    for (const auto& [name, value] : gauges->fields) {
      if (name.rfind("exec.pool.worker", 0) == 0 && name.size() > kBusy.size() &&
          name.compare(name.size() - kBusy.size(), kBusy.size(), kBusy) == 0) {
        stats.pool_busy_s += value.NumberValue();
      }
    }
  }
  const Json* histograms = metrics->Find("histograms");
  const auto histogram = [&](const std::string& name, uint64_t* count) {
    const Json* h = histograms != nullptr ? histograms->Find(name) : nullptr;
    const Json* sum = h != nullptr ? h->Find("sum") : nullptr;
    const Json* n = h != nullptr ? h->Find("count") : nullptr;
    if (count != nullptr) *count = n != nullptr ? static_cast<uint64_t>(n->NumberValue()) : 0;
    return sum != nullptr ? sum->NumberValue() : 0.0;
  };
  stats.latency_sum_ms = histogram("serve.latency_ms", &stats.latency_count);
  for (const char* stage : kStages) {
    stats.stage_sum_ms[stage] = histogram(std::string("serve.stage_ms.") + stage, nullptr);
  }
  return stats;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::map<std::string, double>& values, const MetricSpec* specs,
                 size_t spec_count) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < spec_count; ++i) {
    out << (i == 0 ? "" : ", ") << '"' << specs[i].name
        << "\": {\"value\": " << probcon::FormatDouble(values.at(specs[i].name))
        << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// The median of per-slice (or per-set-up) figures over the ones the host disturbed least:
// those with the fewest steal ticks, which in a quiet run are all the ones with none. They
// are chosen by their steal alone, never by their figure, so a slowdown the code causes
// counts in whichever of them it hits. A slice without a figure (NaN) is skipped.
double QuietMedian(const std::vector<double>& values, const std::vector<double>& steal_ticks) {
  double least = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < values.size(); ++s) {
    if (!std::isnan(values[s])) least = std::min(least, steal_ticks[s]);
  }
  std::vector<double> kept;
  for (size_t s = 0; s < values.size(); ++s) {
    if (!std::isnan(values[s]) && steal_ticks[s] == least) kept.push_back(values[s]);
  }
  return Quantile(kept, 0.5);
}

Json Numbers(const std::vector<double>& list) {
  Json array = Json::Array();
  for (const double value : list) {
    array.Append(std::isnan(value) ? Json::Null() : Json::Number(value));
  }
  return array;
}

// Per-slice figures of one phase: each slice's median latency over the OK answers to the
// requests it started, its OK answers per second, and the host's steal ticks.
struct SliceFigures {
  std::vector<double> p50_us;  // NaN for a slice that started no answered request.
  std::vector<double> qps;
  std::vector<double> steal_ticks;
};

SliceFigures Slices(const PhaseResult& phase, const std::vector<Sample>& samples,
                    const std::vector<bool>& answered_ok) {
  SliceFigures f;
  const std::vector<SliceMark>& marks = phase.marks;
  const size_t slices = marks.size() - 1;
  // Slice s (1-based) runs from marks[s - 1] to marks[s]; 0 and slices + 1 are outside.
  const auto slice_of = [&](int64_t t_ns) {
    return static_cast<size_t>(
        std::upper_bound(marks.begin(), marks.end(), t_ns,
                         [](int64_t t, const SliceMark& mark) { return t < mark.t_ns; }) -
        marks.begin());
  };
  std::vector<std::vector<double>> latencies(slices);
  std::vector<size_t> answers(slices, 0);
  for (size_t i = phase.first; i < phase.last; ++i) {
    if (!answered_ok[i]) continue;
    const size_t started = slice_of(samples[i].start_ns);
    if (started >= 1 && started <= slices) {
      latencies[started - 1].push_back(
          static_cast<double>(samples[i].end_ns - samples[i].start_ns) * 1e-3);
    }
    const size_t ended = slice_of(samples[i].end_ns);
    if (ended >= 1 && ended <= slices) ++answers[ended - 1];
  }
  for (size_t s = 0; s < slices; ++s) {
    f.p50_us.push_back(latencies[s].empty() ? std::nan("") : Quantile(latencies[s], 0.5));
    const auto duration_ns = static_cast<double>(marks[s + 1].t_ns - marks[s].t_ns);
    f.qps.push_back(static_cast<double>(answers[s]) / (std::max(duration_ns, 1.0) * 1e-9));
    f.steal_ticks.push_back(static_cast<double>(marks[s + 1].steal_ticks - marks[s].steal_ticks));
  }
  return f;
}

int Run(const Options& options) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Generation and the answer checks run in this process on every core; its pool must not
  // follow the daemon's PROBCON_THREADS.
  probcon::ScopedThreadPool check_pool(static_cast<int>(nproc));
  const int64_t generate_start = NowNs();
  Result<Workload> made = MakeWorkload(options.workload, options.seed, options.seconds);
  const double generate_s = static_cast<double>(NowNs() - generate_start) * 1e-9;
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = *made;

  DaemonConfig config;
  config.binary = options.daemon;
  config.args = kDaemonArgs;
  config.env = {"PROBCON_THREADS=" + std::to_string(kDaemonWorkers)};
  config.stderr_path =
      options.trace_dir + "/probcond-" + std::to_string(::getpid()) + ".stderr";

  const auto fail = [&](const Status& status) {
    std::fprintf(stderr, "probcond_bench: %s\n", status.ToString().c_str());
    return 1;
  };

  const std::string reset_stats = ", \"kind\": \"stats\", \"params\": {\"reset\": true}}";
  // Set-up, repeated; the last daemon stays up for the timed window. Each set-up opens a
  // stats window before its warm-up (the reset call itself is not timed), so the last
  // daemon's first window covers its warm-up and the first phase.
  std::vector<double> setup_s;
  std::vector<double> setup_steal_ticks;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LoadGen> gen;
  CallResult warmup;
  CallResult control;
  DaemonStats window_start;
  for (int k = 0; k < kSetups; ++k) {
    if (daemon != nullptr) {
      gen.reset();
      if (Status stopped = daemon->Stop(); !stopped.ok()) return fail(stopped);
    }
    const uint64_t steal_before = HostStealTicks();
    const int64_t spawn = NowNs();
    daemon = std::make_unique<Daemon>();
    if (Status s = daemon->Start(config, 30.0); !s.ok()) return fail(s);
    gen = std::make_unique<LoadGen>(workload, daemon.get());
    if (Status s = gen->Connect(daemon->port()); !s.ok()) return fail(s);
    const int64_t connected = NowNs();
    if (Status s = gen->CallAll({reset_stats}, 1, &control); !s.ok()) return fail(s);
    Result<DaemonStats> opened = ParseStats(control.responses[0]);
    if (!opened.ok()) return fail(opened.status());
    window_start = *std::move(opened);
    const int64_t warm_start = NowNs();
    if (Status s = gen->CallAll(workload.warmup, kWarmupPerConnection, &warmup); !s.ok()) {
      return fail(s);
    }
    setup_s.push_back(static_cast<double>(connected - spawn + NowNs() - warm_start) * 1e-9);
    setup_steal_ticks.push_back(static_cast<double>(HostStealTicks() - steal_before));
  }

  const HostSpeed host_speed = ProbeHostSpeed();
  // Timed window: the phases in order, each closed by a `stats` call that resets the
  // daemon's counters for the next.
  const uint64_t steal_start = HostStealTicks();
  std::vector<PhaseResult> phases(workload.phases.size());
  std::vector<DaemonStats> windows = {window_start};
  for (size_t p = 0; p < workload.phases.size(); ++p) {
    if (Status s = gen->RunPhase(workload.phases[p], options.seconds, &phases[p]); !s.ok()) {
      return fail(s);
    }
    if (Status s = gen->CallAll({reset_stats}, 1, &control); !s.ok()) return fail(s);
    Result<DaemonStats> stats = ParseStats(control.responses[0]);
    if (!stats.ok()) return fail(stats.status());
    windows.push_back(*std::move(stats));
  }
  const uint64_t steal_ticks = HostStealTicks() - steal_start;
  const double end_rss_mib = daemon->PeakRssMib();
  const bool rss_at_answers = gen->rss_at_answers_mib() >= 0.0;
  const double peak_rss_mib = rss_at_answers ? gen->rss_at_answers_mib() : end_rss_mib;
  gen->Close();
  if (Status stopped = daemon->Stop(); !stopped.ok()) return fail(stopped);
  const std::vector<Sample>& samples = gen->samples();
  const size_t sent = gen->sent();

  // Answer checks. A timed answer passes when it arrived, is OK, and its bytes after the
  // id equal the expected bytes; warm-up answers are all checked the same way.
  const int64_t check_start = NowNs();
  size_t failed = 0;
  size_t checked = 0;
  {
    std::vector<const std::string*> suffixes;
    for (const std::string& suffix : workload.warmup) suffixes.push_back(&suffix);
    const std::vector<uint64_t> expected = ExpectedDigests(suffixes, false);
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i] == 0 || Fnv1a(AfterId(warmup.responses[i])) != expected[i]) ++failed;
    }
    checked += expected.size();
  }
  std::vector<bool> answered_ok(sent, false);
  for (size_t i = 0; i < sent; ++i) answered_ok[i] = samples[i].end_ns != 0 && samples[i].ok;
  if (workload.cyclic) {
    // Timed dashboard answers come from the cache: one reference per key, so every answer
    // to a key must be byte-identical to it once the id is masked.
    std::vector<const std::string*> keys;
    for (const std::string& key : workload.warmup) keys.push_back(&key);
    const std::vector<uint64_t> digests = ExpectedDigests(keys, true);
    std::map<std::string, uint64_t> reference;
    for (size_t k = 0; k < keys.size(); ++k) reference.emplace(*keys[k], digests[k]);
    std::vector<uint64_t> want(workload.requests.size());
    for (size_t slot = 0; slot < want.size(); ++slot) {
      want[slot] = reference.at(workload.requests[slot]);
    }
    for (size_t i = 0; i < sent; ++i) {
      const uint64_t expected = want[i % want.size()];
      if (!answered_ok[i] || expected == 0 || samples[i].digest != expected) ++failed;
    }
    checked += sent;
  } else {
    std::vector<size_t> indices;
    std::vector<const std::string*> suffixes;
    for (size_t i = 0; i < sent; ++i) {
      const bool sampled =
          workload.check_share >= 1.0 ||
          static_cast<double>(probcon::DeriveStreamSeed(options.seed, i) >> 11) * 0x1.0p-53 <
              workload.check_share;
      if (!answered_ok[i]) {
        ++failed;
      } else if (sampled) {
        indices.push_back(i);
        suffixes.push_back(&workload.requests[i]);
      }
    }
    const std::vector<uint64_t> expected = ExpectedDigests(suffixes, false);
    for (size_t j = 0; j < indices.size(); ++j) {
      if (expected[j] == 0 || samples[indices[j]].digest != expected[j]) ++failed;
    }
    checked += indices.size();
  }
  const double check_s = static_cast<double>(NowNs() - check_start) * 1e-9;
  // Books: the daemon counted the warm-up, every timed request and each closing stats call.
  uint64_t daemon_requests = 0;
  for (size_t w = 1; w < windows.size(); ++w) daemon_requests += windows[w].requests;
  const int64_t books_gap =
      static_cast<int64_t>(daemon_requests) -
      static_cast<int64_t>(workload.warmup.size() + sent + workload.phases.size());
  failed += static_cast<size_t>(std::llabs(books_gap));

  // End-to-end metrics. Latency comes from the first phase (the fixed-rate one when the
  // workload has one: the wait at a stated load). Throughput and CPU per answer come from
  // the last, which is always a closed loop: with the daemon kept busy, CPU per answer is
  // its cost at capacity, whereas at a fixed rate it follows how many requests each
  // wake-up happens to batch, which the host's timing sets. The wall-clock figures are
  // QuietMedians over slices; CPU per answer is taken over the whole closed phase, as the
  // process CPU clock does not run while the host steals the core.
  const PhaseResult& first = phases.front();
  const PhaseResult& closed = phases.back();
  const SliceFigures first_slices = Slices(first, samples, answered_ok);
  const SliceFigures closed_slices = Slices(closed, samples, answered_ok);
  size_t closed_answers = 0;  // OK answers that arrived inside the closed sending window.
  for (size_t i = closed.first; i < closed.last; ++i) {
    if (answered_ok[i] && samples[i].end_ns <= closed.marks.back().t_ns) ++closed_answers;
  }
  // Client latency of the first phase: from the due time (what a user sees) and from the
  // send time (what the reconciliation compares with the daemon).
  std::vector<double> latencies_us;
  std::vector<double> from_send_us;
  for (size_t i = first.first; i < first.last; ++i) {
    if (!answered_ok[i]) continue;
    const int64_t latency_ns = samples[i].end_ns - samples[i].start_ns;
    const int64_t late_ns = first.lateness_ns.empty() ? 0 : first.lateness_ns[i - first.first];
    latencies_us.push_back(static_cast<double>(latency_ns) * 1e-3);
    from_send_us.push_back(static_cast<double>(latency_ns - late_ns) * 1e-3);
  }
  std::map<std::string, double> values;
  values["latency_p50_us"] = QuietMedian(first_slices.p50_us, first_slices.steal_ticks);
  values["throughput_qps"] = QuietMedian(closed_slices.qps, closed_slices.steal_ticks);
  values["server_cpu_us_per_op"] =
      static_cast<double>(closed.marks.back().daemon_cpu_ns - closed.marks.front().daemon_cpu_ns) *
      1e-3 / static_cast<double>(std::max<size_t>(closed_answers, 1));
  values["setup_s"] = QuietMedian(setup_s, setup_steal_ticks);
  values["peak_rss_mib"] = peak_rss_mib;
  values["ok_ratio"] = static_cast<double>(sent - std::min(failed, sent)) /
                       static_cast<double>(std::max<size_t>(sent, 1));

  // Reconciliation over the first window (warm-up plus first phase): the daemon's stage
  // sum against its own mean latency, and that against what the client saw for the same
  // requests. Engine time is nested inside the cache stage; write is transport-side.
  const DaemonStats& window = windows[1];
  const double ops = static_cast<double>(std::max<uint64_t>(window.latency_count, 1));
  const auto stage_us = [&](const char* stage) {
    return window.stage_sum_ms.at(stage) * 1e3 / ops;
  };
  const double daemon_us = window.latency_sum_ms * 1e3 / ops;
  const double stage_sum_us =
      stage_us("parse") + stage_us("canonicalize") + stage_us("cache") + stage_us("serialize");
  double client_sum_us = 0.0;
  size_t client_count = 0;
  for (const int64_t ns : warmup.latency_ns) {
    client_sum_us += static_cast<double>(ns) * 1e-3;
    ++client_count;
  }
  for (const double us : from_send_us) client_sum_us += us;
  client_count += from_send_us.size();
  const double client_mean_us =
      client_sum_us / static_cast<double>(std::max<size_t>(client_count, 1));

  std::vector<double> lateness_us;
  for (const PhaseResult& phase : phases) {
    for (const int64_t ns : phase.lateness_ns) {
      lateness_us.push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  std::string daemon_settings = "PROBCON_THREADS=" + std::to_string(kDaemonWorkers);
  for (const std::string& arg : kDaemonArgs) daemon_settings += " " + arg;
  Json record = Json::Object();
  record.Set("workload", Json::String(workload.name));
  record.Set("seed", Json::Number(options.seed));
  record.Set("seconds", Json::Number(options.seconds));
  record.Set("trace", Json::Bool(options.trace));
  record.Set("nproc", Json::Number(static_cast<int>(nproc)));
  record.Set("build_type", Json::String(PROBCOND_BENCH_BUILD_TYPE));
  record.Set("daemon", Json::String(daemon_settings));
  record.Set("generate_s", Json::Number(generate_s));
  record.Set("check_s", Json::Number(check_s));
  record.Set("steal_ticks", Json::Number(steal_ticks));
  record.Set("host_compute_us", Json::Number(host_speed.compute_us));
  record.Set("host_round_trip_us", Json::Number(host_speed.round_trip_us));
  record.Set("lateness_p99_us", Json::Number(Quantile(lateness_us, 0.99)));
  record.Set("lateness_max_us", Json::Number(Quantile(lateness_us, 1.0)));
  record.Set("latency_p99_us", Json::Number(Quantile(latencies_us, 0.99)));
  record.Set("latency_samples", Json::Number(static_cast<uint64_t>(latencies_us.size())));
  record.Set("slice_p50_us", Numbers(first_slices.p50_us));
  record.Set("slice_steal_ticks", Numbers(first_slices.steal_ticks));
  record.Set("slice_qps", Numbers(closed_slices.qps));
  record.Set("slice_qps_steal_ticks", Numbers(closed_slices.steal_ticks));
  record.Set("setup_samples_s", Numbers(setup_s));
  record.Set("setup_steal_ticks", Numbers(setup_steal_ticks));
  record.Set("rss_at_answers", Json::Number(static_cast<uint64_t>(workload.rss_at_answers)));
  record.Set("rss_at_answers_reached", Json::Bool(rss_at_answers));
  record.Set("end_peak_rss_mib", Json::Number(end_rss_mib));
  record.Set("bench_peak_rss_mib", Json::Number(PeakRssMib(::getpid())));
  record.Set("sent", Json::Number(static_cast<uint64_t>(sent)));
  record.Set("answers_checked", Json::Number(static_cast<uint64_t>(checked)));
  record.Set("failed_ratio", Json::Number(static_cast<double>(failed) /
                                          static_cast<double>(std::max<size_t>(sent, 1))));
  record.Set("books_gap", Json::Number(static_cast<double>(books_gap)));
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  for (size_t w = 1; w < windows.size(); ++w) {
    shed += windows[w].shed;
    errors += windows[w].errors;
    degraded += windows[w].degraded;
  }
  record.Set("daemon_shed", Json::Number(shed));
  record.Set("daemon_errors", Json::Number(errors));
  record.Set("daemon_degraded", Json::Number(degraded));
  std::printf("record %s\n", probcon::WriteJson(record).c_str());
  Json reconcile = Json::Object();
  reconcile.Set("requests", Json::Number(window.latency_count));
  reconcile.Set("daemon_mean_us", Json::Number(daemon_us));
  reconcile.Set("stage_sum_us", Json::Number(stage_sum_us));
  reconcile.Set("client_mean_us", Json::Number(client_mean_us));
  reconcile.Set("serve.unattributed.us_per_op", Json::Number(daemon_us - stage_sum_us));
  reconcile.Set("serve.transport.us_per_op", Json::Number(client_mean_us - daemon_us));
  std::printf("reconcile %s\n", probcon::WriteJson(reconcile).c_str());

  std::remove(config.stderr_path.c_str());  // The daemon exited cleanly; nothing to keep.
  size_t attempted = sent;
  if (!options.trace) {
    PrintResult(failed == 0, attempted, failed, values, kEndToEnd, std::size(kEndToEnd));
    return failed == 0 ? 0 : 1;
  }

  // Traced run: the warm-up and the first timed requests replayed in-process, untraced
  // and traced, and served by the daemon's own QueryServer in process. The replay must
  // answer as the daemon and that server did, with the same memo and cache counts.
  const size_t count = workload.replay_count;
  // Untraced and traced replays alternate kReplayRounds times, and the overhead is the ratio
  // of their median times, which the cold first round and short stalls do not move. The
  // last traced replay gives the spans and the metrics.
  ReplayResult untraced;
  ReplayResult traced;
  Tracer tracer;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (int round = 0; round < kReplayRounds; ++round) {
    untraced = Replay(workload, options.seed, count, nullptr);
    tracer = Tracer();
    traced = Replay(workload, options.seed, count, &tracer);
    untraced_s.push_back(untraced.wall_s);
    traced_s.push_back(traced.wall_s);
  }
  const InProcessResult in_process = ServeInProcess(workload, count);
  size_t replay_failed = traced.failed;
  for (size_t i = 0; i < count; ++i) {
    const bool daemon_mismatch =
        i < sent && answered_ok[i] && samples[i].digest != traced.digests[i];
    if (daemon_mismatch || untraced.digests[i] != traced.digests[i] ||
        in_process.digests[i] != traced.digests[i]) {
      ++replay_failed;
    }
  }
  const bool counts_match = traced.counts == in_process.counts;
  if (!counts_match) ++replay_failed;
  attempted += count;
  failed += replay_failed;
  const ServingCounts& counts = in_process.counts;
  const auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  std::map<std::string, double> layers = traced.metrics;
  layers["serve.text_memo.hit_ratio"] = ratio(counts.memo_hits, counts.memo_misses);
  layers["serve.cache.hit_ratio"] = ratio(counts.cache_hits, counts.cache_misses);
  layers["trace.overhead_ratio"] = Quantile(traced_s, 0.5) / Quantile(untraced_s, 0.5);
  layers["serve.daemon.us_per_op"] = daemon_us;
  for (const char* stage : kStages) {
    layers[std::string("serve.stage.") + stage + ".us_per_op"] = stage_us(stage);
  }
  layers["serve.unattributed.us_per_op"] = daemon_us - stage_sum_us;
  layers["serve.transport.us_per_op"] = client_mean_us - daemon_us;
  // The daemon's pool over the first phase: steals per answer and the workers' busy share.
  const double first_seconds =
      static_cast<double>(first.marks.back().t_ns - first.marks.front().t_ns) * 1e-9;
  layers["exec.pool.steals_per_op"] =
      static_cast<double>(window.pool_steals - windows[0].pool_steals) / ops;
  layers["exec.pool.busy_share"] =
      (window.pool_busy_s - windows[0].pool_busy_s) / (kDaemonWorkers * first_seconds);
  const std::string trace_path = options.trace_dir + "/" + workload.name + "-seed" +
                                 std::to_string(options.seed) + ".spans.csv";
  if (Status written = tracer.WriteCsv(trace_path); !written.ok()) return fail(written);
  Json replay = Json::Object();
  replay.Set("requests", Json::Number(static_cast<uint64_t>(count)));
  replay.Set("untraced_s", Numbers(untraced_s));
  replay.Set("traced_s", Numbers(traced_s));
  replay.Set("mismatches", Json::Number(static_cast<uint64_t>(replay_failed)));
  replay.Set("counts_match", Json::Bool(counts_match));
  const std::pair<const char*, ServingCounts> sides[] = {{"replay", traced.counts},
                                                         {"server", counts}};
  for (const auto& [label, c] : sides) {
    Json entry = Json::Object();
    entry.Set("memo_hits", Json::Number(c.memo_hits));
    entry.Set("memo_misses", Json::Number(c.memo_misses));
    entry.Set("cache_hits", Json::Number(c.cache_hits));
    entry.Set("cache_misses", Json::Number(c.cache_misses));
    replay.Set(std::string(label) + "_counts", std::move(entry));
  }
  replay.Set("reference_probes", Json::Number(static_cast<uint64_t>(traced.reference_probes)));
  replay.Set("spans", Json::String(trace_path));
  std::printf("replay %s\n", probcon::WriteJson(replay).c_str());
  for (const auto& [name, value] : layers) {
    const bool declared = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                      [&](const MetricSpec& spec) { return name == spec.name; });
    if (!declared) return fail(probcon::InternalError("undeclared per-layer metric " + name));
  }
  PrintResult(failed == 0, attempted, failed, layers, kPerLayer, std::size(kPerLayer));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace probcond_bench

int main(int argc, char** argv) {
  probcon::Result<probcond_bench::Options> options = probcond_bench::ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  return probcond_bench::Run(*options);
}
