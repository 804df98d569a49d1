// The query server: admission control, memoization, deadlines, and graceful drain around
// the execution engine. Transport-agnostic — the TCP listener (transport.h), the loopback
// channel (client.h), and the tests all speak to the same QueryServer.
//
// Request lifecycle:
//
//   Submit(payload)
//     -> request-text memo probe            (a payload seen before — any id — maps straight
//                                            to its cache key, skipping parse/canonicalize)
//     -> parse + validate envelope          (errors answer inline: INVALID_ARGUMENT)
//     -> ping / stats answer inline         (introspection must work under overload)
//     -> drain check                        (UNAVAILABLE while draining)
//     -> admission control                  (RESOURCE_EXHAUSTED above max_inflight —
//                                            load shedding is a fast reject, never a queue)
//     -> cache.GetOrCompute(canonical key)  (hit: answer without touching the engines;
//                                            concurrent identical misses single-flight)
//     -> ExecuteRequest on the exec pool, with a CancelToken the deadline watchdog fires
//
// Observability: every stage of that lifecycle is timed with SpanTimer (src/obs/span.h)
// and recorded
// into the serve.stage_ms.{parse,canonicalize,cache,engine,serialize} histograms plus
// per-kind end-to-end latency histograms (serve.latency_ms.<kind>); a request carrying
// `trace: true` gets its span breakdown echoed back in the response envelope. The `stats`
// verb snapshots the whole registry (plus exec-pool telemetry) as JSON, optionally
// resetting counters/histograms afterwards. docs/OBSERVABILITY.md catalogues the metric
// names.
//
// Deadlines are cooperative: the watchdog thread cancels the request's token when its
// deadline passes, the engine's inner loops poll the token every kCancellationPollStride
// iterations and bail, and the reply is DEADLINE_EXCEEDED. A wedged reply is impossible as
// long as engines honor the token — which tests/analysis/cancellation_test.cc locks in.
//
// This layer is where wall-clock time enters the system (deadline arming, latency
// metrics). Everything below it — engines, cache keys, results — stays clock-free, which
// is what keeps served answers byte-identical to offline tool output.

#ifndef PROBCON_SRC_SERVE_SERVER_H_
#define PROBCON_SRC_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/serve/cache.h"
#include "src/serve/engine.h"
#include "src/serve/spec.h"

namespace probcon::serve {

// Brownout circuit breaker: under sustained shedding the server stops failing the
// expensive-but-degradable verb (montecarlo) outright and instead answers it in degraded
// mode — a reduced trial count, or a stale-but-flagged memo entry — through a small
// dedicated admission lane. Every other kind keeps shedding. Every degraded answer carries
// `"degraded": true`; normal answers are byte-identical to a build without brownout.
struct BrownoutOptions {
  bool enabled = true;
  // Breaker window: admit/shed tallies are halved once their sum reaches `window`, a
  // cheap exponential-decay approximation of a sliding window.
  int window = 64;
  // Sheds within the window that trip the breaker open.
  int trip_sheds = 8;
  // Consecutive normal admits that close an open breaker again.
  int recover_admits = 32;
  // Extra in-flight slots (on top of max_inflight) reserved for degraded answers while
  // the breaker is open.
  int degraded_lane = 4;
  // Trial cap applied to degraded montecarlo runs.
  uint64_t degraded_trials = 1u << 14;
};

struct ServerOptions {
  size_t cache_bytes = 64u << 20;     // Memoization budget (split across cache shards).
  int cache_shards = kDefaultCacheShards;  // Memo-cache shard count (>= 1).
  int max_inflight = 64;              // Admission limit; above it requests are shed.
  uint32_t max_frame_bytes = 4u << 20;  // Per-connection frame limit (transports).
  double default_deadline_ms = 0.0;   // Applied when a request carries none; <= 0 = none.
  BrownoutOptions brownout;           // Overload degradation (see above).
};

// Default per-connection pipelining cap, shared by the TCP transport and the loopback
// batch path so both enforce identical semantics: at most this many requests of one
// connection may be in flight at once; beyond it the connection's reads pause (TCP) or its
// submissions block (loopback) until responses complete.
inline constexpr int kDefaultMaxInflightPerConn = 32;

class QueryServer {
 public:
  // `metrics` may be nullptr (all instrumentation disabled); otherwise it must outlive
  // the server. Instruments are internally thread-safe, so request threads record into
  // them without extra locking, and the transport layer may share the same registry.
  explicit QueryServer(ServerOptions options, MetricsRegistry* metrics = nullptr);

  // Implies Drain().
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Processes one request payload; `done` receives the serialized response envelope
  // exactly once, possibly on another thread, possibly before Submit returns (parse
  // errors, shed requests, cache hits, and pings all answer inline).
  void Submit(std::string payload, std::function<void(std::string response)> done);

  // Synchronous convenience wrapper around Submit (loopback transport, tests).
  std::string Handle(std::string payload);

  // Stops admitting work (new requests answer UNAVAILABLE) and blocks until every
  // in-flight request has answered. Idempotent.
  void Drain();

  bool draining() const;
  int inflight() const;
  const ServerOptions& options() const { return options_; }
  QueryCache& cache() { return cache_; }

 private:
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point when;
    std::shared_ptr<CancelToken> token;
  };

  // Arms the watchdog to fire `token` at `when`.
  void ArmDeadline(std::chrono::steady_clock::time_point when,
                   std::shared_ptr<CancelToken> token);
  void WatchdogLoop();

  // Runs the already-parsed request (cache + engine) and builds the response payload.
  // `key` is the canonical key computed in Submit (where the warm-hit probe needed it) and
  // `canonicalize_ms` its span; `deadline_ms` is the effective deadline (request or server
  // default), `started` the Submit entry time (total-latency anchor), `parse_ms` the
  // envelope-parse span measured in Submit — these feed the trace echo and the
  // cancellation-latency histogram.
  std::string RunRequest(const RequestEnvelope& envelope, const std::string& key,
                         double canonicalize_ms,
                         const std::shared_ptr<CancelToken>& token, bool deadline_armed,
                         double deadline_ms, std::chrono::steady_clock::time_point started,
                         double parse_ms);

  // The `stats` verb: a consistent snapshot of the live registry plus exec-pool telemetry,
  // rendered via obs::MetricsToJsonValue. `reset` zeroes counters/histograms afterwards.
  Json StatsResult(bool reset);

  // The `health` verb: ready/degraded/draining plus the breaker internals.
  Json HealthResult();

  void RecordLatencyMs(double elapsed_ms, RequestKind kind);
  void FinishOne(bool degraded = false);

  // Breaker bookkeeping; all require state_mutex_ held.
  void RecordAdmitLocked() PROBCON_REQUIRES(state_mutex_);
  // Records a would-shed event (trips the breaker when warranted) and returns true when
  // the request may enter the degraded lane instead of being shed.
  bool BrownoutShedLocked(RequestKind kind) PROBCON_REQUIRES(state_mutex_);
  void SetHealthGaugeLocked() PROBCON_REQUIRES(state_mutex_);

  const ServerOptions options_;
  MetricsRegistry* const metrics_;
  QueryCache cache_;

  // Lock order (see DESIGN.md decision 12): state_mutex_ is acquired first when ordered
  // with memo_mutex_ or watchdog_mutex_; in practice Submit holds them one at a time, and
  // the ACQUIRED_AFTER declarations below make the intended order checkable.
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  bool draining_ PROBCON_GUARDED_BY(state_mutex_) = false;
  int inflight_ PROBCON_GUARDED_BY(state_mutex_) = 0;

  // Brownout breaker state (state_mutex_). The tallies decay by halving (see
  // BrownoutOptions::window), so the breaker reacts to recent pressure, not history.
  bool breaker_open_ PROBCON_GUARDED_BY(state_mutex_) = false;
  int window_admits_ PROBCON_GUARDED_BY(state_mutex_) = 0;
  int window_sheds_ PROBCON_GUARDED_BY(state_mutex_) = 0;
  int recover_streak_ PROBCON_GUARDED_BY(state_mutex_) = 0;
  int degraded_inflight_ PROBCON_GUARDED_BY(state_mutex_) = 0;
  uint64_t breaker_trips_ PROBCON_GUARDED_BY(state_mutex_) = 0;

  // Request-text memo: wire payload with the id digits excised -> canonical cache key, so
  // a repeat request (any id) skips JSON parsing and canonicalization — most of the
  // per-request CPU on a warm server. The excised text preserves every other byte, so two
  // payloads share an entry iff they differ only in the envelope id; entries are created
  // only for successfully parsed, non-trace engine requests. Bounded (cleared wholesale
  // when full): a front cache, never a source of truth. Lookups never iterate the map, so
  // the unordered container stays within the determinism lint's rules.
  struct TextMemoEntry {
    std::string cache_key;
    RequestKind kind = RequestKind::kPing;
  };
  std::mutex memo_mutex_ PROBCON_ACQUIRED_AFTER(state_mutex_);
  std::unordered_map<std::string, TextMemoEntry> request_memo_ PROBCON_GUARDED_BY(memo_mutex_);

  // Pre-created instruments (nullptr when metrics are disabled). All of them are
  // internally thread-safe; no server lock is held while recording.
  Counter* requests_counter_ = nullptr;
  Counter* text_memo_hits_ = nullptr;
  Counter* text_memo_misses_ = nullptr;
  Counter* shed_counter_ = nullptr;
  Counter* error_counter_ = nullptr;
  Counter* deadline_counter_ = nullptr;
  Counter* degraded_counter_ = nullptr;        // serve.degraded: every degraded answer.
  Counter* degraded_stale_counter_ = nullptr;  // serve.degraded.stale: memo-served subset.
  Counter* brownout_trips_counter_ = nullptr;  // serve.brownout.trips
  Gauge* health_gauge_ = nullptr;              // serve.health: 0 ready, 1 degraded, 2 draining.
  Gauge* degraded_inflight_gauge_ = nullptr;   // serve.degraded_inflight
  Histogram* latency_histogram_ = nullptr;
  Histogram* kind_latency_[kRequestKindCount] = {};
  Histogram* parse_ms_ = nullptr;
  Histogram* canonicalize_ms_ = nullptr;
  Histogram* cache_ms_ = nullptr;
  Histogram* engine_ms_ = nullptr;
  Histogram* serialize_ms_ = nullptr;
  Histogram* cancel_latency_ms_ = nullptr;
  Gauge* inflight_gauge_ = nullptr;
  // Engine progress counters, wired into the analyzers' poll-stride flushes.
  EngineProgress progress_;

  std::mutex watchdog_mutex_ PROBCON_ACQUIRED_AFTER(state_mutex_);
  std::condition_variable watchdog_cv_;
  // Min-heap by `when`.
  std::vector<DeadlineEntry> deadlines_ PROBCON_GUARDED_BY(watchdog_mutex_);
  bool watchdog_shutdown_ PROBCON_GUARDED_BY(watchdog_mutex_) = false;
  std::thread watchdog_;
};

}  // namespace probcon::serve

#endif  // PROBCON_SRC_SERVE_SERVER_H_
