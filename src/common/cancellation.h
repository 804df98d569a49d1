// Cooperative cancellation for long-running analyses.
//
// A CancelToken is a shared atomic flag: whoever owns the computation's lifetime (a serving
// deadline watchdog, a ctrl-C handler, a test) calls Cancel(); the computation polls
// Cancelled() at chunk boundaries and unwinds with StatusCode::kCancelled. The token itself
// carries no clock — deadlines are a *policy* of the caller (probcon::serve arms a watchdog
// thread that cancels expired tokens), so the analysis layer stays free of host-time reads
// and the determinism contract is untouched: a run that is never cancelled performs exactly
// the work it always did, in the same order.
//
// Polls are relaxed atomic loads — a handful of nanoseconds. ParallelFor (src/exec) polls before
// each chunk it hands out, and a StridePoll every kCancellationPollStride items inside one.

#ifndef PROBCON_SRC_COMMON_CANCELLATION_H_
#define PROBCON_SRC_COMMON_CANCELLATION_H_

#include <atomic>
#include <cstdint>

namespace probcon {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

// True when `token` is non-null and cancelled — the one-line poll used in loops.
inline bool IsCancelled(const CancelToken* token) {
  return token != nullptr && token->Cancelled();
}

// Iterations between cancellation polls inside hot analysis loops.
inline constexpr uint64_t kCancellationPollStride = 1024;

// The poll of a loop body. Tick() counts one finished item, adds the count to `progress`
// every kCancellationPollStride items and at scope exit, and is false once `cancel` fired.
class StridePoll {
 public:
  StridePoll(const CancelToken* cancel, std::atomic<uint64_t>* progress)
      : cancel_(cancel), progress_(progress) {}
  ~StridePoll() { Flush(); }
  bool Tick() {
    if (++unflushed_ < kCancellationPollStride) return true;
    Flush();
    return !IsCancelled(cancel_);
  }

 private:
  void Flush() {
    if (progress_ != nullptr && unflushed_ > 0) progress_->fetch_add(unflushed_);
    unflushed_ = 0;
  }
  const CancelToken* cancel_;
  std::atomic<uint64_t>* progress_;
  uint64_t unflushed_ = 0;
};

}  // namespace probcon

#endif  // PROBCON_SRC_COMMON_CANCELLATION_H_
