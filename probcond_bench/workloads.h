// Seeded request mixes for the probcond benchmark.
//
// A workload is a pure function of (name, seed, seconds): the same arguments give the same
// requests in the same order. Requests are stored as the envelope text that follows the id
// ("suffix"), so the generator frames a request by splicing its id between the fixed
// prefix `{"v": 1, "id": ` and the suffix — the exact layout RequestEnvelope::Serialize
// emits, which is also the layout the daemon's request-text memo recognises.
//
// Request i is drawn from its own stream of the seed, so pools of hundreds of thousands
// are generated in parallel. The parameters that set a request's cost (kind, lumped
// states, trials, search size) follow a fixed cycle over i; the seed draws the values
// that change the cost little or average out over thousands of requests (probabilities,
// rates, ages, whatif's n). Every seed therefore runs the same cost mix, so its medians are
// comparable across seeds. Every request's correct answer is OK: PBFT requests
// keep n >= 4 and count-DP kinds keep n <= 64 (two inputs validation accepts but the
// engines abort on), and quorum targets stay attainable for the drawn probabilities.

#ifndef PROBCOND_BENCH_WORKLOADS_H_
#define PROBCOND_BENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace probcond_bench {

inline constexpr std::string_view kIdPrefix = "{\"v\": 1, \"id\": ";

// Full envelope text of `suffix` under envelope id `id`.
std::string EnvelopeText(uint64_t id, const std::string& suffix);

enum class LoopMode {
  kOpen,    // Independent users: requests are due on a fixed schedule.
  kClosed,  // Callers that wait: `outstanding` requests are kept in flight.
};

struct Phase {
  LoopMode mode = LoopMode::kClosed;
  double share = 1.0;     // Share of --seconds this phase runs for.
  double rate_qps = 0.0;  // kOpen only.
  int outstanding = 1;    // kClosed only; spread evenly over the connections.
};

struct Workload {
  std::string name;
  int connections = 1;
  std::vector<std::string> warmup;    // Sent during set-up; not part of the timed window.
  std::vector<std::string> requests;  // Timed requests, sent in order.
  // True when `requests` is a key sequence reused cyclically (every answer then comes from
  // the cache); false when every request is distinct and the pool is sized for the window.
  bool cyclic = false;
  // Run in order. The first gives latency and CPU per answer; the last, always a closed
  // loop, gives throughput.
  std::vector<Phase> phases;
  // Share of timed answers recomputed in-process and compared byte for byte. Cyclic
  // workloads compare every answer against the per-key reference.
  double check_share = 1.0;
  // Requests the in-process replay runs after replaying the warm-up.
  size_t replay_count = 0;
  // Peak RSS is read once the daemon has answered this many timed requests, so the figure
  // is the memory of a fixed amount of work (the cache grows with every distinct answer)
  // rather than of however many answers a run happened to get through.
  size_t rss_at_answers = 0;
};

probcon::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed, double seconds);

// One request of every engine kind (the whatif and estimates cycles and the five fleet
// CTMC shapes once each), for timing an engine that a workload does not reach.
std::vector<std::string> ReferenceRequests(uint64_t seed);

}  // namespace probcond_bench

#endif  // PROBCOND_BENCH_WORKLOADS_H_
