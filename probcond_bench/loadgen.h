// The load generator: one thread driving a workload over a few loopback TCP connections.
//
// Open-loop phases send each request when it is due (a fixed-rate schedule) and time it
// from that due time, so a stall in the generator or the daemon charges every request it
// delays. Closed-loop phases keep a fixed number of requests outstanding and time each
// from its send. Sends and receives are batched per connection: every frame that is due
// goes out in one send(), and one recv() drains every response the kernel holds.
//
// A phase is cut into kSlices equal slices of time. At each slice boundary the generator
// records the daemon's CPU time and the host's steal ticks, so a wall-clock figure can be
// read over the slices the host left alone (main.cc, QuietMedian).
//
// Timed request i carries envelope id i + 1; control traffic (warm-up, stats) uses ids
// from kControlIdBase, so a response is routed by its id alone. A response is judged by a
// 64-bit FNV-1a digest of its bytes after the id, which the answer check compares with
// the digest of the expected bytes.

#ifndef PROBCOND_BENCH_LOADGEN_H_
#define PROBCOND_BENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "probcond_bench/daemon.h"
#include "probcond_bench/workloads.h"
#include "src/common/status.h"

namespace probcond_bench {

inline constexpr uint64_t kControlIdBase = uint64_t{1} << 40;
inline constexpr int kSlices = 100;

uint64_t Fnv1a(std::string_view bytes);

// The envelope text after the id digits, or an empty view when `response` does not start
// with the id prefix.
std::string_view AfterId(std::string_view response);

int64_t NowNs();  // steady_clock, nanoseconds.

struct Sample {
  int64_t start_ns = 0;  // Due time (open loop) or send time (closed loop).
  int64_t end_ns = 0;    // Receive time; 0 while unanswered.
  uint64_t digest = 0;   // Fnv1a(AfterId(response)).
  bool ok = false;       // Status OK.
};

// One slice boundary.
struct SliceMark {
  int64_t t_ns = 0;
  int64_t daemon_cpu_ns = 0;
  uint64_t steal_ticks = 0;
};

struct PhaseResult {
  size_t first = 0;  // Timed request indices [first, last) sent in this phase.
  size_t last = 0;
  std::vector<SliceMark> marks;      // kSlices + 1 boundaries, the phase start first.
  std::vector<int64_t> lateness_ns;  // Open loop: send time minus due time, per request.
};

// Control calls: their responses in request order and each one's round trip.
struct CallResult {
  std::vector<std::string> responses;
  std::vector<int64_t> latency_ns;
};

class LoadGen {
 public:
  // `daemon` is polled for liveness while waiting; both must outlive the generator.
  LoadGen(const Workload& workload, Daemon* daemon);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  probcon::Status Connect(uint16_t port);
  void Close();

  // Sends every envelope suffix (control ids), keeping at most `per_connection` of them
  // outstanding on each connection, and waits for all the answers.
  probcon::Status CallAll(const std::vector<std::string>& suffixes, int per_connection,
                          CallResult* result);

  // Runs one timed phase of `phase.share * seconds` seconds, continuing the timed request
  // sequence where the previous phase stopped, then waits for its answers.
  probcon::Status RunPhase(const Phase& phase, double seconds, PhaseResult* result);

  const std::vector<Sample>& samples() const { return samples_; }
  size_t sent() const { return sent_; }
  // The daemon's peak RSS when it had answered Workload::rss_at_answers timed requests;
  // negative until then.
  double rss_at_answers_mib() const { return rss_mib_; }

 private:
  struct Conn;

  // Appends the frame of the next timed request to a connection; false when a workload
  // of distinct requests has none left.
  bool QueueTimed(size_t conn, int64_t start_ns);
  void QueueControl(size_t conn);
  probcon::Status Flush();
  // Reads every available response; `wait_ms` > 0 blocks up to that long for the first.
  probcon::Status Poll(int wait_ms);
  probcon::Status HandleResponse(size_t conn, const std::string& payload, int64_t now_ns);
  probcon::Status Watch(int64_t now_ns);  // Daemon death and stall guards.
  // The error for a connection that failed: the daemon's death if it died, else `what`.
  probcon::Status ConnectionLost(const std::string& what);
  probcon::Status Drain(int64_t deadline_ns);
  SliceMark Mark() const;

  const Workload& workload_;
  Daemon* daemon_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  std::vector<Sample> samples_;
  size_t sent_ = 0;
  size_t outstanding_ = 0;
  size_t answered_ = 0;
  double rss_mib_ = -1.0;
  // The control call in progress: its requests, how many are sent, and its results.
  uint64_t next_control_id_ = kControlIdBase;
  uint64_t control_first_id_ = kControlIdBase;
  const std::vector<std::string>* control_suffixes_ = nullptr;
  size_t control_queued_ = 0;
  size_t control_pending_ = 0;
  std::vector<int64_t> control_sent_ns_;
  CallResult* control_result_ = nullptr;
  // Closed loop: answers free a slot on their connection, refilled by the phase loop.
  bool closed_refill_ = false;
  int64_t refill_until_ns_ = 0;
  int64_t last_progress_ns_ = 0;
  int64_t last_watch_ns_ = 0;
  std::vector<char> recv_buffer_;
};

}  // namespace probcond_bench

#endif  // PROBCOND_BENCH_LOADGEN_H_
