#include "probcond_bench/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/serve/framing.h"

namespace probcond_bench {
namespace {

using probcon::Status;

constexpr std::string_view kStatusOk = ", \"status\": \"OK\"";
constexpr int64_t kStallNs = 30'000'000'000;   // No answer for this long: the daemon hung.
constexpr int64_t kWatchEveryNs = 10'000'000;  // Daemon liveness poll period.
constexpr int64_t kDrainNs = 60'000'000'000;   // Budget for a phase's last answers.

void AppendFrame(std::string* out, uint64_t id, const std::string& suffix) {
  char digits[24];
  const auto converted = std::to_chars(digits, digits + sizeof(digits), id);
  const size_t id_len = static_cast<size_t>(converted.ptr - digits);
  const uint32_t length = static_cast<uint32_t>(kIdPrefix.size() + id_len + suffix.size());
  const char header[4] = {static_cast<char>(length >> 24), static_cast<char>(length >> 16),
                          static_cast<char>(length >> 8), static_cast<char>(length)};
  out->append(probcon::serve::kFrameMagic, sizeof(probcon::serve::kFrameMagic));
  out->append(header, sizeof(header));
  out->append(kIdPrefix);
  out->append(digits, id_len);
  out->append(suffix);
}

bool ParseId(std::string_view response, uint64_t* id) {
  if (response.substr(0, kIdPrefix.size()) != kIdPrefix) return false;
  const char* begin = response.data() + kIdPrefix.size();
  const auto parsed = std::from_chars(begin, response.data() + response.size(), *id);
  return parsed.ec == std::errc() && parsed.ptr != begin;
}

}  // namespace

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string_view AfterId(std::string_view response) {
  if (response.substr(0, kIdPrefix.size()) != kIdPrefix) return {};
  size_t pos = kIdPrefix.size();
  while (pos < response.size() && response[pos] >= '0' && response[pos] <= '9') ++pos;
  return response.substr(pos);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoadGen::Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  probcon::serve::FrameDecoder decoder;
};

LoadGen::LoadGen(const Workload& workload, Daemon* daemon)
    : workload_(workload), daemon_(daemon), recv_buffer_(256 * 1024) {}

LoadGen::~LoadGen() { Close(); }

Status LoadGen::Connect(uint16_t port) {
  Close();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return probcon::UnavailableError("epoll_create1 failed");
  for (int i = 0; i < workload_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return probcon::UnavailableError("socket failed");
    const int enable = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
      const std::string error = std::strerror(errno);
      ::close(conn->fd);
      return probcon::UnavailableError("connect to probcond: " + error);
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = conns_.size();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
    conns_.push_back(std::move(conn));
  }
  last_progress_ns_ = NowNs();
  return Status::Ok();
}

void LoadGen::Close() {
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  outstanding_ = 0;
}

bool LoadGen::QueueTimed(size_t conn, int64_t start_ns) {
  const size_t index = sent_;
  if (!workload_.cyclic && index >= workload_.requests.size()) return false;
  const std::string& suffix = workload_.requests[index % workload_.requests.size()];
  Sample sample;
  sample.start_ns = start_ns;
  samples_.push_back(sample);
  AppendFrame(&conns_[conn]->out, index + 1, suffix);
  ++sent_;
  ++outstanding_;
  return true;
}

void LoadGen::QueueControl(size_t conn) {
  const size_t slot = control_queued_++;
  AppendFrame(&conns_[conn]->out, control_first_id_ + slot, (*control_suffixes_)[slot]);
  control_sent_ns_[slot] = NowNs();
}

Status LoadGen::Flush() {
  for (const auto& conn : conns_) {
    while (conn->out_offset < conn->out.size()) {
      const ssize_t sent = ::send(conn->fd, conn->out.data() + conn->out_offset,
                                  conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (sent > 0) {
        conn->out_offset += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      return ConnectionLost("send to probcond failed: " + std::string(std::strerror(errno)));
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
    }
  }
  return Status::Ok();
}

Status LoadGen::Poll(int wait_ms) {
  epoll_event events[8];
  const int ready = ::epoll_wait(epoll_fd_, events, 8, wait_ms);
  if (ready < 0 && errno != EINTR) return probcon::UnavailableError("epoll_wait failed");
  for (int i = 0; i < ready; ++i) {
    const size_t index = events[i].data.u64;
    Conn& conn = *conns_[index];
    while (true) {
      const ssize_t got = ::recv(conn.fd, recv_buffer_.data(), recv_buffer_.size(), 0);
      if (got > 0) {
        const int64_t now = NowNs();
        conn.decoder.Feed(std::string_view(recv_buffer_.data(), static_cast<size_t>(got)));
        while (true) {
          probcon::Result<std::optional<std::string>> next = conn.decoder.Next();
          if (!next.ok()) return next.status();
          if (!next->has_value()) break;
          RETURN_IF_ERROR(HandleResponse(index, **next, now));
        }
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      return ConnectionLost("probcond closed a connection");
    }
  }
  return Status::Ok();
}

Status LoadGen::HandleResponse(size_t conn, const std::string& payload, int64_t now_ns) {
  uint64_t id = 0;
  if (!ParseId(payload, &id)) {
    return probcon::InternalError("response without an envelope id: " + payload.substr(0, 200));
  }
  last_progress_ns_ = now_ns;
  if (id >= kControlIdBase) {
    const uint64_t slot = id - control_first_id_;
    if (control_result_ == nullptr || id < control_first_id_ || slot >= control_queued_) {
      return probcon::InternalError("unexpected control response id " + std::to_string(id));
    }
    control_result_->responses[slot] = payload;
    control_result_->latency_ns[slot] = now_ns - control_sent_ns_[slot];
    --control_pending_;
    if (control_queued_ < control_suffixes_->size()) QueueControl(conn);
    return Status::Ok();
  }
  const size_t index = id - 1;
  if (id == 0 || index >= samples_.size() || samples_[index].end_ns != 0) {
    return probcon::InternalError("unexpected response id " + std::to_string(id));
  }
  const std::string_view after = AfterId(payload);
  Sample& sample = samples_[index];
  sample.end_ns = now_ns;
  sample.digest = Fnv1a(after);
  sample.ok = after.substr(0, kStatusOk.size()) == kStatusOk;
  --outstanding_;
  if (++answered_ == workload_.rss_at_answers) rss_mib_ = daemon_->PeakRssMib();
  if (closed_refill_ && now_ns < refill_until_ns_ && !QueueTimed(conn, now_ns)) {
    refill_until_ns_ = now_ns;  // Distinct requests used up: the phase ends here.
  }
  return Status::Ok();
}

Status LoadGen::ConnectionLost(const std::string& what) {
  // A dying daemon closes its sockets before it can be reaped: give it a second to exit so
  // the error names its exit status and stderr.
  for (int i = 0; i < 1000; ++i) {
    RETURN_IF_ERROR(daemon_->CheckAlive());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return probcon::UnavailableError(what);
}

Status LoadGen::Watch(int64_t now_ns) {
  if (now_ns - last_watch_ns_ < kWatchEveryNs) return Status::Ok();
  last_watch_ns_ = now_ns;
  RETURN_IF_ERROR(daemon_->CheckAlive());
  if ((outstanding_ > 0 || control_pending_ > 0) && now_ns - last_progress_ns_ > kStallNs) {
    return probcon::DeadlineExceededError("probcond answered nothing for 30 s with " +
                                          std::to_string(outstanding_ + control_pending_) +
                                          " requests outstanding");
  }
  return Status::Ok();
}

Status LoadGen::Drain(int64_t deadline_ns) {
  while (outstanding_ > 0 || control_pending_ > 0) {
    RETURN_IF_ERROR(Flush());
    RETURN_IF_ERROR(Poll(1));
    const int64_t now = NowNs();
    RETURN_IF_ERROR(Watch(now));
    if (now > deadline_ns) {
      return probcon::DeadlineExceededError(std::to_string(outstanding_ + control_pending_) +
                                            " answers missing after the drain budget");
    }
  }
  return Status::Ok();
}

Status LoadGen::CallAll(const std::vector<std::string>& suffixes, int per_connection,
                        CallResult* result) {
  result->responses.assign(suffixes.size(), std::string());
  result->latency_ns.assign(suffixes.size(), 0);
  control_result_ = result;
  control_suffixes_ = &suffixes;
  control_sent_ns_.assign(suffixes.size(), 0);
  control_queued_ = 0;
  control_pending_ = suffixes.size();
  control_first_id_ = next_control_id_;
  next_control_id_ += suffixes.size();
  for (int round = 0; round < per_connection; ++round) {
    for (size_t conn = 0; conn < conns_.size() && control_queued_ < suffixes.size(); ++conn) {
      QueueControl(conn);
    }
  }
  last_progress_ns_ = NowNs();
  const Status drained = Drain(NowNs() + kDrainNs);
  control_pending_ = 0;
  control_result_ = nullptr;
  control_suffixes_ = nullptr;
  return drained;
}

SliceMark LoadGen::Mark() const { return {NowNs(), daemon_->CpuNs(), HostStealTicks()}; }

Status LoadGen::RunPhase(const Phase& phase, double seconds, PhaseResult* result) {
  const size_t connections = conns_.size();
  const auto duration = static_cast<int64_t>(phase.share * seconds * 1e9);
  result->first = sent_;
  result->marks.clear();
  result->marks.push_back(Mark());
  const int64_t start = result->marks.front().t_ns;
  int64_t end = start + duration;
  const auto next_mark = [&] {
    return start + duration * static_cast<int64_t>(result->marks.size()) / kSlices;
  };
  int64_t mark_at = next_mark();
  last_progress_ns_ = start;

  if (phase.mode == LoopMode::kOpen) {
    const double interval = 1e9 / phase.rate_qps;
    const auto expected = static_cast<size_t>(phase.rate_qps * phase.share * seconds) + 64;
    samples_.reserve(sent_ + expected);
    result->lateness_ns.reserve(expected);
    // The open loop spins: a send that waited on a wake-up would be late by it.
    uint64_t k = 0;
    while (true) {
      const int64_t now = NowNs();
      int64_t due = start + static_cast<int64_t>(static_cast<double>(k) * interval);
      while (due <= now && due < end) {
        if (!QueueTimed(k % connections, due)) {
          end = due;  // Distinct requests used up: the phase ends here.
          break;
        }
        result->lateness_ns.push_back(now - due);
        ++k;
        due = start + static_cast<int64_t>(static_cast<double>(k) * interval);
      }
      RETURN_IF_ERROR(Flush());
      if (due >= end) break;
      if (now >= mark_at) {
        result->marks.push_back(Mark());
        mark_at = next_mark();
      }
      RETURN_IF_ERROR(Poll(0));
      RETURN_IF_ERROR(Watch(now));
    }
  } else {
    samples_.reserve(sent_ + (workload_.cyclic ? static_cast<size_t>(6e5 * phase.share * seconds)
                                                : workload_.requests.size() - sent_));
    closed_refill_ = true;
    refill_until_ns_ = end;
    for (int i = 0; i < phase.outstanding; ++i) {
      if (!QueueTimed(static_cast<size_t>(i) % connections, start)) break;
    }
    // A closed loop has nothing to send until an answer arrives, so the generator blocks
    // for it instead of spinning: an idle spinning core still competes for the host.
    while (true) {
      RETURN_IF_ERROR(Flush());
      const int64_t now = NowNs();
      if (now >= refill_until_ns_) break;
      if (now >= mark_at) {
        result->marks.push_back(Mark());
        mark_at = next_mark();
      }
      RETURN_IF_ERROR(Poll(1));
      RETURN_IF_ERROR(Watch(now));
    }
    closed_refill_ = false;
  }
  // The last boundary closes the sending window (answers still in flight land after it).
  while (result->marks.size() > kSlices) result->marks.pop_back();
  result->marks.push_back(Mark());
  result->last = sent_;
  return Drain(NowNs() + kDrainNs);
}

}  // namespace probcond_bench
