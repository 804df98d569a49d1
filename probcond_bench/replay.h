// The traced run: the workload's requests replayed in-process, on one thread, through the
// public entry points of each layer a request crosses in the daemon —
//
//   serve/framing   FrameDecoder (request in), EncodeFrame (response out)
//   serve/spec      RequestEnvelope::Parse, then ServeRequest::CanonicalKey
//   serve/cache     QueryCache::TryGet, then GetOrCompute on a miss
//   serve/engine    ExecuteRequest, then common/json WriteJson of its result
//   serve/server    ParseJson of the cached text (the miss re-parse) and
//                   ResponseEnvelope::Serialize
//
// in the order QueryServer::Submit calls them, minus the sockets; a miss that the daemon
// would hand to the pool runs inline and is counted as one pool task. Two steps of Submit
// have no public entry point, the request-text memo and the warm-hit splice of cached text
// into the response; the replay models them without timing them (the daemon's own stage
// figures cover them), and the model is checked: each response must be byte-identical to
// the daemon's, and the memo and cache counts must equal those of ServeInProcess below.
//
// The replay starts from a cold cache with the workload's warm-up, as the daemon does, so
// layers that only the warm-up reaches (the dashboard's parsing and engines) are measured
// too. After it, ParseJson is timed on every payload that was parsed (the JSON share of
// envelope parsing), and the engine calls underneath ExecuteRequest (count DP, quorum
// sizing, Monte Carlo, placement, enumeration, the fleet CTMC solves, repair sweeps) are
// called directly on the requests that reached the engine, one span each; an engine that
// none of them reaches is timed on a small seeded reference set instead
// (ReferenceRequests), so every engine row is a measurement on every workload.
//
// Spans record name, start, end, parent and request id; they stay in memory and are
// written out when the run ends. A layer's self time is its span's duration minus its
// child spans. Counts are read at the same boundaries: the engines' progress cells,
// QueryCache::snapshot and ThreadPool::GetStats.

#ifndef PROBCOND_BENCH_REPLAY_H_
#define PROBCOND_BENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probcond_bench/workloads.h"
#include "src/common/status.h"

namespace probcond_bench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    uint64_t calls = 0;
  };

  void SetRequest(uint64_t request) { request_ = request; }
  int32_t Begin(const char* name);
  void End(int32_t span);

  // Per span name: summed duration, summed self time, and span count.
  std::map<std::string, Totals> Aggregate() const;
  probcon::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

// Request-text memo and memo-cache lookups over a replay.
struct ServingCounts {
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  bool operator==(const ServingCounts&) const = default;
};

struct ReplayResult {
  // Per-layer metrics: span-derived ones only when traced; counts always. Per-op figures
  // are over every replayed request, warm-up included.
  std::map<std::string, double> metrics;
  ServingCounts counts;
  std::vector<uint64_t> digests;  // Fnv1a(AfterId(response)) of each timed request.
  size_t failed = 0;              // Answers whose status was not OK.
  size_t reference_probes = 0;    // Reference requests probed for unreached engines.
  double wall_s = 0.0;            // Serving-path replay time, engine probes excluded.
};

// Replays the warm-up, then timed requests 0..count-1 (ids 1..count). `tracer` may be null
// (the untraced replay that the trace overhead is measured against); `seed` draws the
// reference requests.
ReplayResult Replay(const Workload& workload, uint64_t seed, size_t count, Tracer* tracer);

struct InProcessResult {
  ServingCounts counts;           // From the server's serve.text_memo.* and serve.cache.*.
  std::vector<uint64_t> digests;  // As ReplayResult::digests.
};

// The same requests as Replay, served one at a time by the daemon's own QueryServer in
// process (QueryServer::Handle, a pool of the daemon's size, the default options).
InProcessResult ServeInProcess(const Workload& workload, size_t count);

}  // namespace probcond_bench

#endif  // PROBCOND_BENCH_REPLAY_H_
