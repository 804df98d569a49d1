#include "src/serve/server.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/json.h"
#include "src/exec/thread_pool.h"
#include "src/obs/export.h"
#include "src/serve/engine.h"

namespace probcon::serve {
namespace {

// Best-effort recovery of the request id from a payload that failed full envelope parsing,
// so even malformed-request errors can be correlated by the client.
uint64_t RecoverRequestId(std::string_view payload) {
  Result<Json> parsed = ParseJson(payload, "serve request");
  if (!parsed.ok() || !parsed->IsObject()) return 0;
  uint64_t id = 0;
  Status status = JsonReadUint64(*parsed, "id", &id, "serve request");
  return status.ok() ? id : 0;
}

std::string ErrorResponse(uint64_t id, const Status& status) {
  return ResponseEnvelope::Write(id, status, false, false, "", "");
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Entry bound for the request-text memo. When full the memo is cleared wholesale — the
// next requests repopulate it; a front cache needs no smarter eviction.
constexpr size_t kRequestMemoCap = 4096;

// The exact layout RequestEnvelope::Serialize emits. The fast-path scan accepts only this
// layout, so the excised digit span is provably the top-level envelope id: any other field
// order — including a payload whose params object places an "id" key first — fails the
// prefix check and takes the full parse path instead.
constexpr std::string_view kWireIdPrefix = "{\"v\": 1, \"id\": ";
constexpr std::string_view kWireKindSep = ", \"kind\": ";

struct WireScan {
  uint64_t id = 0;
  size_t id_begin = 0;  // First digit of the envelope id.
  size_t id_end = 0;    // One past the last digit.
};

bool ScanWirePayload(std::string_view payload, WireScan* scan) {
  if (payload.size() < kWireIdPrefix.size() + 1 + kWireKindSep.size()) return false;
  if (payload.compare(0, kWireIdPrefix.size(), kWireIdPrefix) != 0) return false;
  size_t pos = kWireIdPrefix.size();
  uint64_t value = 0;
  size_t digits = 0;
  while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9') {
    if (++digits > 19) return false;  // 19 decimal digits always fit a uint64.
    value = value * 10 + static_cast<uint64_t>(payload[pos] - '0');
    ++pos;
  }
  if (digits == 0) return false;
  if (payload.compare(pos, kWireKindSep.size(), kWireKindSep) != 0) return false;
  scan->id = value;
  scan->id_begin = kWireIdPrefix.size();
  scan->id_end = pos;
  return true;
}

// The one verb the brownout lane may answer in degraded mode: montecarlo, whose cost is a
// free parameter (its trial count), so a capped run is a cheaper honest answer. Every
// other kind keeps shedding; end_to_end's exact count DP costs microseconds, far less than
// any sampled stand-in.
bool DegradableKind(RequestKind kind) { return kind == RequestKind::kMonteCarlo; }

}  // namespace

QueryServer::QueryServer(ServerOptions options, MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      cache_(options.cache_bytes, metrics, options.cache_shards) {
  if (metrics_ != nullptr) {
    // Serve latencies span warm cache hits (~10us) to deadline-bounded engine runs, so
    // every latency histogram here uses the fine-grained 1us-floor layout.
    const HistogramOptions latency = HistogramOptions::ServeLatencyMs();
    requests_counter_ = &metrics_->GetCounter("serve.requests");
    text_memo_hits_ = &metrics_->GetCounter("serve.text_memo.hits");
    text_memo_misses_ = &metrics_->GetCounter("serve.text_memo.misses");
    shed_counter_ = &metrics_->GetCounter("serve.shed");
    error_counter_ = &metrics_->GetCounter("serve.errors");
    deadline_counter_ = &metrics_->GetCounter("serve.deadline_exceeded");
    latency_histogram_ = &metrics_->GetHistogram("serve.latency_ms", latency);
    for (int i = 0; i < kRequestKindCount; ++i) {
      const auto kind = static_cast<RequestKind>(i);
      kind_latency_[i] = &metrics_->GetHistogram(
          "serve.latency_ms." + std::string(RequestKindName(kind)), latency);
    }
    parse_ms_ = &metrics_->GetHistogram("serve.stage_ms.parse", latency);
    canonicalize_ms_ = &metrics_->GetHistogram("serve.stage_ms.canonicalize", latency);
    cache_ms_ = &metrics_->GetHistogram("serve.stage_ms.cache", latency);
    engine_ms_ = &metrics_->GetHistogram("serve.stage_ms.engine", latency);
    serialize_ms_ = &metrics_->GetHistogram("serve.stage_ms.serialize", latency);
    cancel_latency_ms_ = &metrics_->GetHistogram("serve.cancel_latency_ms", latency);
    inflight_gauge_ = &metrics_->GetGauge("serve.inflight");
    degraded_counter_ = &metrics_->GetCounter("serve.degraded");
    degraded_stale_counter_ = &metrics_->GetCounter("serve.degraded.stale");
    brownout_trips_counter_ = &metrics_->GetCounter("serve.brownout.trips");
    health_gauge_ = &metrics_->GetGauge("serve.health");
    degraded_inflight_gauge_ = &metrics_->GetGauge("serve.degraded_inflight");
    progress_.mc_trials = &metrics_->GetCounter("serve.engine.mc_trials").cell();
    progress_.enum_configs = &metrics_->GetCounter("serve.engine.enum_configs").cell();
    progress_.ctmc_steps = &metrics_->GetCounter("serve.engine.ctmc_steps").cell();
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

QueryServer::~QueryServer() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_shutdown_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
}

bool QueryServer::draining() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return draining_;
}

int QueryServer::inflight() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return inflight_;
}

void QueryServer::Submit(std::string payload, std::function<void(std::string)> done) {
  const auto started = std::chrono::steady_clock::now();
  SpanTimer span;

  // Request-text fast path: excise the envelope id digits and probe the text memo. A hit
  // maps this payload straight to its canonical cache key and kind — no JSON parse, no
  // canonicalization — so warm answers and overload rejects alike stay cheap.
  WireScan scan;
  const bool scanned = ScanWirePayload(payload, &scan);
  std::string memo_text;
  std::optional<TextMemoEntry> memo;
  if (scanned) {
    memo_text.reserve(payload.size());
    memo_text.append(payload, 0, scan.id_begin);
    memo_text.append(payload, scan.id_end, std::string::npos);
    {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      const auto it = request_memo_.find(memo_text);
      if (it != request_memo_.end()) memo = it->second;
    }
    if (text_memo_hits_ != nullptr) (memo ? text_memo_hits_ : text_memo_misses_)->Increment();
  }

  RequestEnvelope envelope;
  double parse_ms = 0.0;
  if (!memo) {
    Result<RequestEnvelope> parsed = RequestEnvelope::Parse(payload);
    parse_ms = span.LapMs();
    if (parse_ms_ != nullptr) parse_ms_->Record(parse_ms);
    if (!parsed.ok()) {
      if (requests_counter_ != nullptr) requests_counter_->Increment();
      if (error_counter_ != nullptr) error_counter_->Increment();
      done(ErrorResponse(RecoverRequestId(payload), parsed.status()));
      return;
    }
    envelope = *std::move(parsed);

    // Ping, stats and health answer inline and before admission on purpose: readiness and
    // introspection matter most exactly while the server is shedding or draining.
    const RequestKind kind = envelope.request.kind;
    if (kind == RequestKind::kPing || kind == RequestKind::kStats ||
        kind == RequestKind::kHealth) {
      // Counted before the stats snapshot, so a snapshot includes the request taking it.
      if (requests_counter_ != nullptr) requests_counter_->Increment();
      Json result = Json::Object();
      std::string trace_text;
      if (kind == RequestKind::kPing) {
        result.Set("ok", Json::Bool(true));
        result.Set("draining", Json::Bool(draining()));
      } else if (kind == RequestKind::kHealth) {
        result = HealthResult();
      } else {
        result = StatsResult(envelope.request.stats_reset);
        if (envelope.trace) {
          RequestTrace trace;
          trace.AddStage("parse", parse_ms);
          trace.AddStage("snapshot", span.LapMs());
          trace.total_ms = span.ElapsedMs();
          trace_text = WriteJson(trace.ToJson());
        }
      }
      done(ResponseEnvelope::Write(envelope.id, Status::Ok(), false, false, WriteJson(result),
                                   trace_text));
      RecordLatencyMs(span.ElapsedMs(), kind);
      return;
    }
  }

  Admitted request;
  request.id = memo ? scan.id : envelope.id;
  request.kind = memo ? memo->kind : envelope.request.kind;
  request.trace = envelope.trace;
  request.started = started;
  request.parse_ms = parse_ms;
  request.done = std::move(done);
  if (Status admitted = Admit(request.kind, &request.degraded); !admitted.ok()) {
    request.done(ErrorResponse(request.id, admitted));
    return;
  }

  // Warm-path fast serve: canonicalize and probe the cache on the caller's thread (a
  // reactor, for TCP traffic) before paying the pool hop. TryGet never blocks on an
  // in-flight computation, so a hit answers inline with no cross-thread handoff — the
  // common warm case — while misses and single-flight waits take the pool path below.
  SpanTimer key_span;
  std::string key;
  if (memo) {
    key = std::move(memo->cache_key);
  } else {
    key = envelope.request.CanonicalKey();
    request.canonicalize_ms = key_span.LapMs();
    if (canonicalize_ms_ != nullptr) canonicalize_ms_->Record(request.canonicalize_ms);
    if (scanned && !envelope.trace) {
      // Memoize text -> key so the next identical payload (any id) takes the fast path.
      // Only admitted engine kinds reach this point, so a memo hit never routes into the
      // inline verbs. Trace requests are excluded: their answers carry per-request spans.
      std::lock_guard<std::mutex> lock(memo_mutex_);
      if (request_memo_.size() >= kRequestMemoCap) request_memo_.clear();
      request_memo_.emplace(std::move(memo_text), TextMemoEntry{key, request.kind});
    }
  }
  std::string cached_text;
  if (cache_.TryGet(key, &cached_text)) {
    const double cache_ms = key_span.LapMs();
    if (cache_ms_ != nullptr) cache_ms_->Record(cache_ms);
    if (request.degraded) {  // A brownout serves the exact memoized answer, flagged stale.
      if (degraded_counter_ != nullptr) degraded_counter_->Increment();
      if (degraded_stale_counter_ != nullptr) degraded_stale_counter_->Increment();
    }
    Answer(request, Status::Ok(), /*cached=*/true, cached_text, cache_ms, /*engine_ms=*/-1.0);
    return;
  }

  if (memo) {
    // The memoized result has been evicted from the cache: the engine needs the request.
    Result<RequestEnvelope> parsed = RequestEnvelope::Parse(payload);
    request.parse_ms = span.LapMs();
    if (parse_ms_ != nullptr) parse_ms_->Record(request.parse_ms);
    if (!parsed.ok()) {  // Unreachable: this text parsed before, under another id.
      if (error_counter_ != nullptr) error_counter_->Increment();
      request.done(ErrorResponse(request.id, parsed.status()));
      FinishOne(request.degraded);
      return;
    }
    envelope = *std::move(parsed);
  }

  // A degraded admission with no memo to serve runs the engine in degraded mode: the
  // request copy is marked so the engine caps its trial count, and the run bypasses the
  // cache (degraded results must never poison the memo).
  if (request.degraded) {
    envelope.request.degraded = true;
    envelope.request.degraded_trials = options_.brownout.degraded_trials;
  }

  double deadline_ms = envelope.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
  // Envelope parsing already rejects deadlines above kMaxDeadlineMs; the clamp also
  // covers an operator-configured default, keeping the microseconds cast in range.
  deadline_ms = std::min(deadline_ms, kMaxDeadlineMs);
  auto token = std::make_shared<CancelToken>();
  const bool deadline_armed = deadline_ms > 0.0;
  if (deadline_armed) {
    ArmDeadline(started + std::chrono::microseconds(static_cast<int64_t>(deadline_ms * 1e3)),
                token);
  }

  ThreadPool::Global().Submit(
      [this, request = std::move(request), envelope = std::move(envelope), key = std::move(key),
       token, deadline_armed, deadline_ms] {
        SpanTimer cache_span;
        bool was_cached = false;
        double engine_ms = -1.0;  // >= 0 iff this request was the single-flight leader.
        auto run_engine = [&]() -> Result<std::string> {
          SpanTimer engine_span;
          Result<Json> result = ExecuteRequest(envelope.request, token.get(), progress_);
          engine_ms = engine_span.ElapsedMs();
          if (engine_ms_ != nullptr) engine_ms_->Record(engine_ms);
          if (!result.ok()) return result.status();
          return WriteJson(*result);
        };
        // Degraded runs bypass the memo entirely: their capped-trial answers must neither be
        // stored (they would poison later full-fidelity reads) nor join a single-flight group
        // (the leader may be computing the full answer under a deadline this request lacks).
        const Result<std::string> result_text =
            request.degraded ? run_engine() : cache_.GetOrCompute(key, run_engine, &was_cached);
        // The cache span covers the whole lookup: a single-flight wait on a follower, or the
        // nested engine run on the leader.
        const double cache_ms = cache_span.ElapsedMs();
        if (cache_ms_ != nullptr) cache_ms_->Record(cache_ms);

        Status status = result_text.status();
        // The engine reports cooperative cancellation as kCancelled; when the cancel came from
        // this request's own deadline, the client-facing code is DEADLINE_EXCEEDED.
        if (status.code() == StatusCode::kCancelled && deadline_armed && token->Cancelled()) {
          status = DeadlineExceededError("deadline expired after " +
                                         FormatDouble(envelope.deadline_ms) + " ms: " +
                                         status.message());
          if (deadline_counter_ != nullptr) deadline_counter_->Increment();
          if (cancel_latency_ms_ != nullptr) {
            // How long past its deadline the request took to actually come back — the
            // responsiveness of the cooperative-cancellation poll loops.
            cancel_latency_ms_->Record(std::max(0.0, MsSince(request.started) - deadline_ms));
          }
        } else if (!status.ok()) {
          if (error_counter_ != nullptr) error_counter_->Increment();
        } else if (request.degraded && degraded_counter_ != nullptr) {
          degraded_counter_->Increment();
        }
        Answer(request, status, was_cached,
               result_text.ok() ? std::string_view(*result_text) : std::string_view(), cache_ms,
               engine_ms);
      });
}

void QueryServer::Answer(const Admitted& request, const Status& status, bool cached,
                         std::string_view result_text, double cache_ms, double engine_ms) {
  SpanTimer serialize_span;
  std::string trace_text;
  if (request.trace && status.ok()) {
    RequestTrace trace;
    trace.AddStage("parse", request.parse_ms);
    trace.AddStage("canonicalize", request.canonicalize_ms);
    trace.AddStage("cache", cache_ms);
    if (engine_ms >= 0.0) trace.AddStage("engine", engine_ms);
    trace.total_ms = MsSince(request.started);
    trace_text = WriteJson(trace.ToJson());
  }
  std::string response = ResponseEnvelope::Write(request.id, status, cached, request.degraded,
                                                 result_text, trace_text);
  if (serialize_ms_ != nullptr) serialize_ms_->Record(serialize_span.ElapsedMs());
  RecordLatencyMs(MsSince(request.started), request.kind);
  request.done(std::move(response));
  FinishOne(request.degraded);
}

Status QueryServer::Admit(RequestKind kind, bool* degraded) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (requests_counter_ != nullptr) requests_counter_->Increment();
  if (draining_) {
    if (error_counter_ != nullptr) error_counter_->Increment();
    return UnavailableError("server is draining");
  }
  if (inflight_ < options_.max_inflight) {
    RecordAdmitLocked();
  } else if (BrownoutShedLocked(kind)) {
    *degraded = true;
    ++degraded_inflight_;
    if (degraded_inflight_gauge_ != nullptr) degraded_inflight_gauge_->Set(degraded_inflight_);
  } else {
    // Load shedding: a fast, cheap reject. The client can retry against another replica
    // or back off; queueing here would only convert overload into latency.
    if (shed_counter_ != nullptr) shed_counter_->Increment();
    return ResourceExhaustedError("server at capacity (" +
                                  std::to_string(options_.max_inflight) +
                                  " requests in flight); retry with backoff");
  }
  ++inflight_;
  if (inflight_gauge_ != nullptr) inflight_gauge_->Set(inflight_);
  return Status::Ok();
}

Json QueryServer::StatsResult(bool reset) {
  // Deep-copy the live registry, then layer the exec pool's point-in-time telemetry onto
  // the private copy. ExportMetrics *increments* counters, so it must only ever target a
  // fresh snapshot registry — exporting into the live one twice would double-count.
  MetricsRegistry snapshot;
  if (metrics_ != nullptr) {
    metrics_->SnapshotInto(&snapshot);
  }
  ThreadPool::Global().ExportMetrics(snapshot);
  Json result = Json::Object();
  result.Set("metrics", MetricsToJsonValue(snapshot));
  if (reset && metrics_ != nullptr) {
    // Gauges (levels) survive; counters and histograms start a fresh window. The cache's
    // internal Stats and the pool's own telemetry are cumulative and unaffected.
    metrics_->Reset();
    result.Set("reset", Json::Bool(true));
  }
  return result;
}

std::string QueryServer::Handle(std::string payload) {
  std::string response;
  std::mutex mutex;
  std::condition_variable cv;
  bool ready = false;
  Submit(std::move(payload), [&](std::string text) {
    std::lock_guard<std::mutex> lock(mutex);
    response = std::move(text);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  // Help the pool while waiting so Handle works even on a 0-worker pool.
  while (!ready) {
    lock.unlock();
    const bool helped = ThreadPool::Global().TryRunOneTask();
    lock.lock();
    if (!helped && !ready) {
      cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  return response;
}

// NO_THREAD_SAFETY_ANALYSIS: clang cannot model std::unique_lock's unlock/relock help
// loop (libc++ only annotates lock_guard/scoped_lock); probcon-lint still covers it.
void QueryServer::Drain() PROBCON_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(state_mutex_);
  draining_ = true;
  SetHealthGaugeLocked();
  while (inflight_ > 0) {
    // Help the pool drain instead of only blocking: the in-flight jobs may be queued
    // behind this very thread on a small pool.
    lock.unlock();
    const bool helped = ThreadPool::Global().TryRunOneTask();
    lock.lock();
    if (!helped && inflight_ > 0) {
      drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
}

void QueryServer::FinishOne(bool degraded) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    --inflight_;
    if (inflight_gauge_ != nullptr) inflight_gauge_->Set(inflight_);
    if (degraded) {
      --degraded_inflight_;
      if (degraded_inflight_gauge_ != nullptr) {
        degraded_inflight_gauge_->Set(degraded_inflight_);
      }
    }
    if (inflight_ == 0) drained_cv_.notify_all();
  }
}

void QueryServer::SetHealthGaugeLocked() {
  if (health_gauge_ == nullptr) return;
  health_gauge_->Set(draining_ ? 2 : (breaker_open_ ? 1 : 0));
}

void QueryServer::RecordAdmitLocked() {
  ++window_admits_;
  if (window_admits_ + window_sheds_ >= options_.brownout.window) {
    window_admits_ /= 2;
    window_sheds_ /= 2;
  }
  if (breaker_open_) {
    ++recover_streak_;
    if (recover_streak_ >= options_.brownout.recover_admits) {
      breaker_open_ = false;
      recover_streak_ = 0;
      SetHealthGaugeLocked();
    }
  }
}

bool QueryServer::BrownoutShedLocked(RequestKind kind) {
  ++window_sheds_;
  recover_streak_ = 0;
  if (window_admits_ + window_sheds_ >= options_.brownout.window) {
    window_admits_ /= 2;
    window_sheds_ /= 2;
  }
  if (!options_.brownout.enabled) return false;
  if (!breaker_open_ && window_sheds_ >= options_.brownout.trip_sheds) {
    breaker_open_ = true;
    ++breaker_trips_;
    if (brownout_trips_counter_ != nullptr) brownout_trips_counter_->Increment();
    SetHealthGaugeLocked();
  }
  return breaker_open_ && DegradableKind(kind) &&
         degraded_inflight_ < options_.brownout.degraded_lane;
}

Json QueryServer::HealthResult() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Json result = Json::Object();
  result.Set("state", Json::String(draining_ ? "draining"
                                             : (breaker_open_ ? "degraded" : "ready")));
  result.Set("inflight", Json::Number(inflight_));
  result.Set("degraded_inflight", Json::Number(degraded_inflight_));
  result.Set("max_inflight", Json::Number(options_.max_inflight));
  Json brownout = Json::Object();
  brownout.Set("enabled", Json::Bool(options_.brownout.enabled));
  brownout.Set("breaker_open", Json::Bool(breaker_open_));
  brownout.Set("trips", Json::Number(breaker_trips_));
  brownout.Set("window_sheds", Json::Number(window_sheds_));
  brownout.Set("window_admits", Json::Number(window_admits_));
  brownout.Set("recover_streak", Json::Number(recover_streak_));
  brownout.Set("degraded_lane", Json::Number(options_.brownout.degraded_lane));
  brownout.Set("degraded_trials", Json::Number(options_.brownout.degraded_trials));
  result.Set("brownout", std::move(brownout));
  return result;
}

void QueryServer::RecordLatencyMs(double elapsed_ms, RequestKind kind) {
  if (latency_histogram_ != nullptr) latency_histogram_->Record(elapsed_ms);
  Histogram* kind_histogram = kind_latency_[static_cast<int>(kind)];
  if (kind_histogram != nullptr) kind_histogram->Record(elapsed_ms);
}

void QueryServer::ArmDeadline(std::chrono::steady_clock::time_point when,
                              std::shared_ptr<CancelToken> token) {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    deadlines_.push_back(DeadlineEntry{when, std::move(token)});
    std::push_heap(deadlines_.begin(), deadlines_.end(),
                   [](const DeadlineEntry& a, const DeadlineEntry& b) { return a.when > b.when; });
  }
  watchdog_cv_.notify_one();
}

// NO_THREAD_SAFETY_ANALYSIS: the whole loop runs under a std::unique_lock that cv-waits
// release and reacquire; clang's analysis cannot follow unique_lock (see DESIGN.md 12).
void QueryServer::WatchdogLoop() PROBCON_NO_THREAD_SAFETY_ANALYSIS {
  const auto later_first = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.when > b.when;
  };
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (true) {
    if (watchdog_shutdown_) return;
    if (deadlines_.empty()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    const auto next = deadlines_.front().when;
    if (std::chrono::steady_clock::now() < next) {
      watchdog_cv_.wait_until(lock, next);
      continue;
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), later_first);
    DeadlineEntry expired = std::move(deadlines_.back());
    deadlines_.pop_back();
    expired.token->Cancel();
  }
}

}  // namespace probcon::serve
