// Client-side channels to a query server, behind one synchronous interface:
//
//   * LoopbackChannel — calls a QueryServer in-process. No sockets, no threads beyond the
//     exec pool: the transport the unit tests and benches use, so protocol behavior is
//     testable without binding ports.
//   * TcpChannel — the framed TCP protocol against a probcond daemon.
//
// A channel has one exchange, RoundTripBatch: it pipelines a batch of request envelopes
// over one connection, at most kDefaultMaxInflightPerConn in flight at once (the
// server-side pipelining cap), and returns the responses in arrival order. ServeClient
// layers envelope assembly/parsing on any channel and matches the (possibly out-of-order)
// responses back to request order by envelope id; a single Query is a batch of one.
// Request ids are assigned monotonically per client.

#ifndef PROBCON_SRC_SERVE_CLIENT_H_
#define PROBCON_SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/serve/spec.h"

namespace probcon {
class MetricsRegistry;
}  // namespace probcon

namespace probcon::serve {

class QueryServer;

// The request/response exchange; payloads and responses are envelope JSON.
class Channel {
 public:
  virtual ~Channel() = default;

  // Sends every payload over this channel and returns the raw responses in ARRIVAL
  // order — with pipelining that is not request order; callers correlate by envelope id
  // (ServeClient::QueryBatch does).
  virtual Result<std::vector<std::string>> RoundTripBatch(
      const std::vector<std::string>& payloads) = 0;

  // Best-effort cross-thread cancel of any in-progress exchange: the losing side of a
  // hedged pair is aborted so its thread unblocks promptly. Default is a no-op (loopback
  // exchanges are already bounded by server deadlines); TcpChannel shuts the socket down,
  // making blocked operations fail with UNAVAILABLE.
  virtual void Abort() {}
};

// In-process channel; `server` must outlive the channel.
class LoopbackChannel final : public Channel {
 public:
  explicit LoopbackChannel(QueryServer& server) : server_(server) {}

  // Pipelines through QueryServer::Submit, keeping at most kDefaultMaxInflightPerConn
  // requests in flight — the same cap the TCP transport enforces per connection — and
  // helps the exec pool while waiting so a small pool can't deadlock the batch.
  Result<std::vector<std::string>> RoundTripBatch(
      const std::vector<std::string>& payloads) override;

 private:
  QueryServer& server_;
};

// Framed-TCP channel to 127.0.0.1:port.
class TcpChannel final : public Channel {
 public:
  ~TcpChannel() override;

  // `timeout_ms > 0` bounds the connect AND each later exchange as a whole: an exchange
  // still incomplete after `timeout_ms` of wall time fails with UNAVAILABLE. This is the
  // defense against stalled and slow-dripped connections — without a whole-exchange
  // bound, a peer trickling one byte per poll interval defeats any per-read timeout.
  // `timeout_ms <= 0` leaves both unbounded.
  static Result<std::unique_ptr<TcpChannel>> Connect(uint16_t port, double timeout_ms = 0.0);

  // Interleaves nonblocking sends with reads (poll on POLLIN|POLLOUT), so the client never
  // sits in a blocking send while the server waits for it to drain responses. Caps the
  // unsent backlog so at most ~kDefaultMaxInflightPerConn requests are on the wire ahead
  // of the oldest unanswered one.
  Result<std::vector<std::string>> RoundTripBatch(
      const std::vector<std::string>& payloads) override;

  // Shuts the socket down (both directions) without closing the fd, so an exchange blocked
  // in another thread observes EOF and fails with UNAVAILABLE. Safe to call concurrently
  // with RoundTripBatch; the fd itself is closed only by the destructor.
  void Abort() override;

 private:
  TcpChannel(int fd, double timeout_ms) : fd_(fd), timeout_ms_(timeout_ms) {}

  int fd_;
  double timeout_ms_;
};

class ServeClient {
 public:
  // Takes ownership of `channel`.
  explicit ServeClient(std::unique_ptr<Channel> channel) : channel_(std::move(channel)) {}

  // One query. `params` is the raw params object; `deadline_ms <= 0` means no
  // client-requested deadline. `trace` asks the server to echo its per-stage span
  // breakdown in the response envelope's `trace` field (kNull when not requested or the
  // request failed).
  struct BatchItem {
    std::string kind;
    Json params;
    double deadline_ms = 0.0;
    bool trace = false;
  };

  // Issues the whole batch pipelined over the channel and returns envelopes in REQUEST
  // order: responses arrive out of order and are matched back by id. A non-OK Result
  // means the exchange failed (connection, framing, unparseable response, a response id
  // that matches no request); per-request errors ride in each envelope's `status`.
  Result<std::vector<ResponseEnvelope>> QueryBatch(const std::vector<BatchItem>& items);

  // QueryBatch of one item.
  Result<ResponseEnvelope> Query(std::string_view kind, const Json& params,
                                 double deadline_ms = 0.0, bool trace = false);

 private:
  std::unique_ptr<Channel> channel_;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Resilience layer: retries with decorrelated jitter, per-call deadlines, hedging.

// One decorrelated-jitter backoff step (Brooker): uniform in [base, 3 * prev], capped.
// Deterministic given the rng stream — the schedule is a pure function of the retry seed
// and the attempt sequence, never of the wall clock.
double DecorrelatedJitterBackoffMs(Rng& rng, double base_ms, double cap_ms, double prev_ms);

struct RetryOptions {
  // Total attempts per call, first try included. 1 disables retries.
  int max_attempts = 4;
  double initial_backoff_ms = 2.0;
  double max_backoff_ms = 250.0;
  // Root of the jitter stream (via DeriveStreamSeed): two clients with the same seed and
  // call sequence back off identically.
  uint64_t seed = 1;
  // Lifetime cap on retries across ALL calls of one ResilientClient — the "retry budget"
  // that stops a flaky network from turning every caller into a retry storm.
  uint64_t retry_budget = ~0ull;
  // Per-attempt wall bound handed to the channel factory (TcpFactory wires it into
  // TcpChannel::Connect); 0 leaves attempts unbounded.
  double attempt_timeout_ms = 0.0;
  // > 0 arms a hedge for every exchange: if the primary exchange has not completed after
  // this many milliseconds, a second connection races the same batch and the first
  // complete result wins (the loser is Abort()ed). Safe because every query verb is pure.
  double hedge_delay_ms = 0.0;
};

// A self-healing client: wraps a channel factory and retries idempotent-safe failures
// with capped decorrelated-jitter backoff, reconnecting after transport errors.
//
// Retry policy (all query verbs are pure, so "idempotent-safe" is about NOT retrying
// requests the server judged, only requests that never got a usable verdict):
//   * transport failures (connection refused/reset/closed mid-frame, corrupt stream,
//     exchange timeout) → drop the connection, back off, retry on a fresh one;
//   * envelope status UNAVAILABLE or RESOURCE_EXHAUSTED → server asked for a retry;
//   * every other envelope status (OK, INVALID_ARGUMENT, DEADLINE_EXCEEDED, ...) is a
//     definite verdict and is returned as-is.
// A call-level `deadline_ms` bounds the whole retry loop: remaining budget shrinks each
// attempt (and is what the server is told), and the loop returns DEADLINE_EXCEEDED rather
// than start an attempt it cannot finish.
//
// Query and QueryBatch share one loop; a query is a batch of one. An item that exhausts
// the policy (attempts, retry budget) resolves to its last outcome: the last retryable
// envelope as-is, or the last transport/corruption failure. An expired call deadline
// resolves it to DEADLINE_EXCEEDED.
class ResilientClient {
 public:
  using ChannelFactory = std::function<Result<std::unique_ptr<Channel>>()>;

  // `metrics`, when non-null, receives serve.client.retries / serve.client.hedges /
  // serve.client.reconnects counters. Must outlive the client.
  ResilientClient(ChannelFactory factory, RetryOptions options,
                  MetricsRegistry* metrics = nullptr);

  // A factory dialing 127.0.0.1:port with the given per-attempt timeout.
  static ChannelFactory TcpFactory(uint16_t port, double attempt_timeout_ms = 0.0);

  // As ServeClient::QueryBatch, pipelined and retried: only unresolved items are re-sent
  // on retry, and with hedge_delay_ms > 0 a stalled primary races a hedge connection.
  // The retry loop is bounded by the longest item deadline (unbounded if any item has
  // none). Every item resolves to a definite envelope: a failure the policy could not
  // retry away comes back as an envelope (id 0) carrying its status.
  Result<std::vector<ResponseEnvelope>> QueryBatch(
      const std::vector<ServeClient::BatchItem>& items);

  // QueryBatch of one item, except that a transport/corruption failure or an expired call
  // deadline comes back as a non-OK Result. `deadline_ms <= 0` means no call deadline
  // (retries are then bounded only by max_attempts and the budget).
  Result<ResponseEnvelope> Query(std::string_view kind, const Json& params,
                                 double deadline_ms = 0.0, bool trace = false);

  uint64_t retries() const { return retries_; }
  uint64_t hedges() const { return hedges_; }

 private:
  // The retry loop: each item's final outcome, in request order.
  std::vector<Result<ResponseEnvelope>> Resolve(
      const std::vector<ServeClient::BatchItem>& items);
  // Sleeps one jittered backoff step (clipped to the remaining deadline). Returns false
  // when the deadline or the retry budget is exhausted.
  bool BackoffBeforeRetry(double remaining_ms);
  Result<std::vector<std::string>> ExchangeBatch(const std::vector<std::string>& payloads);
  Status EnsureChannel();

  ChannelFactory factory_;
  RetryOptions options_;
  MetricsRegistry* metrics_;
  std::unique_ptr<Channel> channel_;
  Rng jitter_rng_;
  double prev_backoff_ms_ = 0.0;
  bool ever_connected_ = false;
  uint64_t next_id_ = 1;
  uint64_t retries_ = 0;
  uint64_t hedges_ = 0;
};

}  // namespace probcon::serve

#endif  // PROBCON_SRC_SERVE_CLIENT_H_
