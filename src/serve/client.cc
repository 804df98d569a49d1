#include "src/serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/serve/framing.h"
#include "src/serve/server.h"

namespace probcon::serve {

Result<std::vector<std::string>> LoopbackChannel::RoundTripBatch(
    const std::vector<std::string>& payloads) {
  struct BatchState {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> responses;
    size_t completed = 0;
    int inflight = 0;
  };
  BatchState state;
  state.responses.resize(payloads.size());

  // Wait for `ready` while helping the exec pool: with a small (or inline) pool the
  // batch's own engine work may be queued behind this thread, so block only when there
  // is genuinely nothing to run.
  auto wait_for = [&state](auto ready) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        if (ready()) return;
      }
      if (!ThreadPool::Global().TryRunOneTask()) {
        std::unique_lock<std::mutex> lock(state.mutex);
        if (ready()) return;
        state.cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  };

  for (size_t i = 0; i < payloads.size(); ++i) {
    // Same pipelining cap as one TCP connection: at most kDefaultMaxInflightPerConn of
    // this batch in flight at once.
    wait_for([&state] { return state.inflight < kDefaultMaxInflightPerConn; });
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      ++state.inflight;
    }
    server_.Submit(payloads[i], [&state, i](std::string response) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.responses[i] = std::move(response);
      ++state.completed;
      --state.inflight;
      state.cv.notify_all();
    });
  }
  wait_for([&state, &payloads] { return state.completed == payloads.size(); });
  return std::move(state.responses);
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<std::unique_ptr<TcpChannel>> TcpChannel::Connect(uint16_t port, double timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError("socket(): " + std::string(std::strerror(errno)));
  }
  auto fail = [fd, port](const std::string& error) {
    ::close(fd);
    return UnavailableError("connect(127.0.0.1:" + std::to_string(port) + "): " + error);
  };
  // Nonblocking connect bounded by poll() (unbounded without a timeout); the fd stays
  // nonblocking so the exchange can enforce its whole-exchange deadline with poll() too.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return fail("fcntl(O_NONBLOCK): " + std::string(std::strerror(errno)));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    if (errno != EINPROGRESS) {
      return fail(std::strerror(errno));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int wait_ms =
        timeout_ms > 0.0 ? std::max(1, static_cast<int>(std::ceil(timeout_ms))) : -1;
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) {
      return fail("timed out after " + std::to_string(wait_ms) + "ms");
    }
    if (ready < 0) {
      return fail("poll(): " + std::string(std::strerror(errno)));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 || so_error != 0) {
      return fail(std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  // NOLINTNEXTLINE(probcon-ownership): private constructor; make_unique cannot reach it.
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd, timeout_ms));
}

void TcpChannel::Abort() { ::shutdown(fd_, SHUT_RDWR); }

Result<std::vector<std::string>> TcpChannel::RoundTripBatch(
    const std::vector<std::string>& payloads) {
  std::vector<std::string> responses;
  responses.reserve(payloads.size());
  FrameDecoder decoder;
  char buffer[64 * 1024];
  std::string wire;        // Encoded frames queued for the socket.
  size_t wire_offset = 0;  // Prefix of `wire` already sent.
  size_t next_frame = 0;   // Next payload to encode into `wire`.

  using Clock = std::chrono::steady_clock;
  const bool bounded = timeout_ms_ > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         bounded ? static_cast<int64_t>(timeout_ms_ * 1000.0) : 0);

  while (responses.size() < payloads.size()) {
    // Drain whatever the decoder already buffered before touching the socket.
    while (responses.size() < payloads.size()) {
      Result<std::optional<std::string>> next = decoder.Next();
      if (!next.ok()) {
        return next.status();
      }
      if (!next->has_value()) break;
      responses.push_back(*std::move(*next));
    }
    if (responses.size() == payloads.size()) break;

    // Encode more requests while under the pipelining window — the same cap the server
    // enforces per connection, so the batch never provokes server-side read pauses.
    while (next_frame < payloads.size() &&
           next_frame - responses.size() <
               static_cast<size_t>(kDefaultMaxInflightPerConn)) {
      wire += EncodeFrame(payloads[next_frame]);
      ++next_frame;
    }
    if (wire_offset == wire.size()) {
      wire.clear();
      wire_offset = 0;
    }

    // Interleave sending with reading: a blocking send here could deadlock with a server
    // whose responses we are not draining (both kernel buffers full, both sides writing).
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (wire_offset < wire.size()) {
      pfd.events |= POLLOUT;
    }
    int wait_ms = -1;
    if (bounded) {
      // Whole-exchange bound: a peer dripping one byte per read resets any per-read
      // timeout forever, so the deadline is absolute for the exchange.
      const auto remaining = deadline - Clock::now();
      if (remaining <= Clock::duration::zero()) {
        return UnavailableError(
            "exchange timed out after " + std::to_string(timeout_ms_) + "ms (" +
            std::to_string(responses.size()) + " of " + std::to_string(payloads.size()) +
            " responses received)");
      }
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count();
      wait_ms = static_cast<int>(remaining_ms) + 1;
    }
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("poll(): " + std::string(std::strerror(errno)));
    }
    if (ready == 0) {
      continue;  // Timer expired; the top of the loop reports the timeout.
    }
    if ((pfd.revents & POLLOUT) != 0 && wire_offset < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + wire_offset, wire.size() - wire_offset,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        wire_offset += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return UnavailableError("send(): " + std::string(std::strerror(errno)));
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (received > 0) {
        decoder.Feed(std::string_view(buffer, static_cast<size_t>(received)));
      } else if (received == 0) {
        Status eof = decoder.AtEof();
        if (!eof.ok()) {
          return eof;
        }
        return UnavailableError("connection closed mid-batch (" +
                                std::to_string(responses.size()) + " of " +
                                std::to_string(payloads.size()) + " responses received)");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return UnavailableError("recv(): " + std::string(std::strerror(errno)));
      }
    }
  }
  return responses;
}

namespace {

// Routes each raw response to the request slot its envelope id names, erasing the id from
// `unanswered` (request id -> slot). An unparseable response, an id that matches no
// outstanding request, or a request left unanswered means the stream is damaged: routing
// stops with a non-OK status and the connection is unusable.
template <typename Slot>
Status RouteResponses(const std::vector<std::string>& raw,
                      std::map<uint64_t, size_t>& unanswered, std::vector<Slot>& slots) {
  for (const std::string& text : raw) {
    Result<ResponseEnvelope> envelope = ResponseEnvelope::Parse(text);
    if (!envelope.ok()) {
      return envelope.status();
    }
    const auto slot = unanswered.find(envelope->id);
    if (slot == unanswered.end()) {
      return UnavailableError("response id " + std::to_string(envelope->id) +
                              " matches no outstanding request in the batch");
    }
    slots[slot->second] = std::move(*envelope);
    unanswered.erase(slot);
  }
  if (!unanswered.empty()) {
    return UnavailableError("batch returned " + std::to_string(raw.size()) +
                            " responses for " + std::to_string(raw.size() + unanswered.size()) +
                            " requests");
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<ResponseEnvelope>> ServeClient::QueryBatch(
    const std::vector<BatchItem>& items) {
  std::vector<std::string> payloads;
  payloads.reserve(items.size());
  std::map<uint64_t, size_t> unanswered;
  for (size_t i = 0; i < items.size(); ++i) {
    const uint64_t id = next_id_++;
    unanswered[id] = i;
    payloads.push_back(RequestEnvelope::Serialize(id, items[i].kind, items[i].params,
                                                  items[i].deadline_ms, items[i].trace));
  }
  Result<std::vector<std::string>> raw = channel_->RoundTripBatch(payloads);
  if (!raw.ok()) {
    return raw.status();
  }
  std::vector<ResponseEnvelope> ordered(items.size());
  RETURN_IF_ERROR(RouteResponses(*raw, unanswered, ordered));
  return ordered;
}

Result<ResponseEnvelope> ServeClient::Query(std::string_view kind, const Json& params,
                                            double deadline_ms, bool trace) {
  Result<std::vector<ResponseEnvelope>> batch =
      QueryBatch({{std::string(kind), params, deadline_ms, trace}});
  if (!batch.ok()) {
    return batch.status();
  }
  return std::move(batch->front());
}

// ---------------------------------------------------------------------------
// Resilience layer.

double DecorrelatedJitterBackoffMs(Rng& rng, double base_ms, double cap_ms, double prev_ms) {
  const double low = base_ms;
  const double high = std::max(low, 3.0 * (prev_ms > 0.0 ? prev_ms : base_ms));
  const double value = low + (high - low) * rng.NextDouble();
  return std::min(cap_ms, value);
}

namespace {

// Envelope statuses the server means as "try again": everything else is a verdict.
bool RetryableStatus(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kResourceExhausted;
}

double RemainingMs(std::chrono::steady_clock::time_point start, double deadline_ms) {
  if (deadline_ms <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return deadline_ms - elapsed;
}

}  // namespace

ResilientClient::ResilientClient(ChannelFactory factory, RetryOptions options,
                                 MetricsRegistry* metrics)
    : factory_(std::move(factory)),
      options_(options),
      metrics_(metrics),
      jitter_rng_(DeriveStreamSeed(options.seed, 0xB0FFull)) {}

ResilientClient::ChannelFactory ResilientClient::TcpFactory(uint16_t port,
                                                            double attempt_timeout_ms) {
  return [port, attempt_timeout_ms]() -> Result<std::unique_ptr<Channel>> {
    Result<std::unique_ptr<TcpChannel>> channel = TcpChannel::Connect(port, attempt_timeout_ms);
    if (!channel.ok()) {
      return channel.status();
    }
    return std::unique_ptr<Channel>(std::move(*channel));
  };
}

Status ResilientClient::EnsureChannel() {
  if (channel_ != nullptr) {
    return Status::Ok();
  }
  Result<std::unique_ptr<Channel>> channel = factory_();
  if (!channel.ok()) {
    return channel.status();
  }
  channel_ = std::move(*channel);
  if (ever_connected_ && metrics_ != nullptr) {
    metrics_->GetCounter("serve.client.reconnects").Increment();
  }
  ever_connected_ = true;
  return Status::Ok();
}

bool ResilientClient::BackoffBeforeRetry(double remaining_ms) {
  if (retries_ >= options_.retry_budget) {
    return false;
  }
  if (remaining_ms <= 0.0) {
    return false;
  }
  double sleep_ms = DecorrelatedJitterBackoffMs(jitter_rng_, options_.initial_backoff_ms,
                                                options_.max_backoff_ms, prev_backoff_ms_);
  prev_backoff_ms_ = sleep_ms;
  if (std::isfinite(remaining_ms)) {
    // Leave at least a millisecond of deadline for the attempt itself.
    sleep_ms = std::min(sleep_ms, std::max(0.0, remaining_ms - 1.0));
  }
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(sleep_ms * 1000.0)));
  }
  ++retries_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("serve.client.retries").Increment();
  }
  return true;
}

Result<std::vector<std::string>> ResilientClient::ExchangeBatch(
    const std::vector<std::string>& payloads) {
  if (options_.hedge_delay_ms <= 0.0) {
    return channel_->RoundTripBatch(payloads);
  }
  struct HedgeState {
    std::mutex mutex;
    std::condition_variable cv;
    bool primary_done = false;
    bool hedge_started = false;
    bool hedge_done = false;
    std::unique_ptr<Channel> hedge_channel;
    Result<std::vector<std::string>> hedge_result = UnavailableError("hedge not run");
  };
  HedgeState state;
  std::thread hedger([this, &state, &payloads] {
    {
      std::unique_lock<std::mutex> lock(state.mutex);
      state.cv.wait_for(
          lock,
          std::chrono::microseconds(static_cast<int64_t>(options_.hedge_delay_ms * 1000.0)),
          [&state] { return state.primary_done; });
      if (state.primary_done) {
        return;
      }
    }
    Result<std::unique_ptr<Channel>> channel = factory_();
    Channel* hedge = nullptr;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!channel.ok() || state.primary_done) {
        return;
      }
      state.hedge_channel = std::move(*channel);
      state.hedge_started = true;
      hedge = state.hedge_channel.get();
      ++hedges_;
    }
    if (metrics_ != nullptr) {
      metrics_->GetCounter("serve.client.hedges").Increment();
    }
    Result<std::vector<std::string>> result = hedge->RoundTripBatch(payloads);
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.hedge_result = std::move(result);
      state.hedge_done = true;
    }
    state.cv.notify_all();
  });
  Result<std::vector<std::string>> primary = channel_->RoundTripBatch(payloads);
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.primary_done = true;  // A hedge that has not launched yet now never will.
    if (primary.ok() && state.hedge_started && !state.hedge_done) {
      state.hedge_channel->Abort();  // Unblock the losing exchange promptly.
    }
  }
  state.cv.notify_all();
  hedger.join();
  if (primary.ok()) {
    return primary;
  }
  if (state.hedge_started && state.hedge_result.ok()) {
    // The hedge connection carried the batch; adopt it for future attempts.
    channel_ = std::move(state.hedge_channel);
    return std::move(state.hedge_result);
  }
  return primary;
}

std::vector<Result<ResponseEnvelope>> ResilientClient::Resolve(
    const std::vector<ServeClient::BatchItem>& items) {
  const auto start = std::chrono::steady_clock::now();
  // The retry loop is bounded by the longest per-item deadline; one unbounded item makes
  // the loop unbounded (max_attempts and the budget still apply).
  double call_deadline_ms = 0.0;
  for (const ServeClient::BatchItem& item : items) {
    if (item.deadline_ms <= 0.0) {
      call_deadline_ms = 0.0;
      break;
    }
    call_deadline_ms = std::max(call_deadline_ms, item.deadline_ms);
  }

  // Each item's latest outcome: the envelope it was last answered with, or the failure
  // that last left it unanswered. An item is pending until its envelope is a verdict.
  std::vector<Result<ResponseEnvelope>> outcomes(items.size(),
                                                 UnavailableError("no attempt was made"));
  std::vector<size_t> pending(items.size());
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 0; attempt < options_.max_attempts && !pending.empty(); ++attempt) {
    if (attempt > 0 && !BackoffBeforeRetry(RemainingMs(start, call_deadline_ms))) {
      break;
    }
    if (RemainingMs(start, call_deadline_ms) <= 0.0) {
      break;
    }
    const Status ready = EnsureChannel();
    if (!ready.ok()) {
      for (size_t slot : pending) {
        outcomes[slot] = ready;
      }
      continue;
    }
    // Re-send only the unresolved items, with fresh ids and their remaining deadlines.
    std::map<uint64_t, size_t> unanswered;
    std::vector<std::string> payloads;
    payloads.reserve(pending.size());
    for (size_t slot : pending) {
      const ServeClient::BatchItem& item = items[slot];
      double item_deadline = item.deadline_ms;
      if (item_deadline > 0.0) {
        item_deadline = std::max(1.0, RemainingMs(start, item_deadline));
      }
      const uint64_t id = next_id_++;
      unanswered[id] = slot;
      payloads.push_back(
          RequestEnvelope::Serialize(id, item.kind, item.params, item_deadline, item.trace));
    }
    Result<std::vector<std::string>> raw = ExchangeBatch(payloads);
    const Status routed = raw.ok() ? RouteResponses(*raw, unanswered, outcomes) : raw.status();
    if (!routed.ok()) {
      channel_.reset();  // The stream state is unknown; retries dial fresh.
      for (const auto& [id, slot] : unanswered) {
        outcomes[slot] = routed;
      }
    }
    std::erase_if(pending, [&outcomes](size_t slot) {
      return outcomes[slot].ok() && !RetryableStatus(outcomes[slot]->status.code());
    });
  }

  if (RemainingMs(start, call_deadline_ms) <= 0.0) {
    for (size_t slot : pending) {
      const Status& last = outcomes[slot].ok() ? outcomes[slot]->status : outcomes[slot].status();
      outcomes[slot] =
          DeadlineExceededError("call deadline of " + std::to_string(call_deadline_ms) +
                                "ms expired during retries; last error: " + last.message());
    }
  }
  return outcomes;
}

Result<std::vector<ResponseEnvelope>> ResilientClient::QueryBatch(
    const std::vector<ServeClient::BatchItem>& items) {
  std::vector<Result<ResponseEnvelope>> outcomes = Resolve(items);
  std::vector<ResponseEnvelope> envelopes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (outcomes[i].ok()) {
      envelopes[i] = std::move(*outcomes[i]);
    } else {
      envelopes[i].status = outcomes[i].status();
    }
  }
  return envelopes;
}

Result<ResponseEnvelope> ResilientClient::Query(std::string_view kind, const Json& params,
                                                double deadline_ms, bool trace) {
  return std::move(Resolve({{std::string(kind), params, deadline_ms, trace}}).front());
}

}  // namespace probcon::serve
