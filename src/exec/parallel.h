// Deterministic parallel loops over integer ranges, built on ThreadPool.
//
// All three helpers follow the exec determinism contract (thread_pool.h): work is split
// into fixed-size chunks, each chunk produces an independent result, and results are
// combined in ascending chunk order on the calling thread. Chunk size is part of an
// algorithm's definition — changing it changes floating-point merge order — so callers pick
// a constant and keep it; the worker count never appears in the math.
//
// ParallelFor blocks until every chunk has run. The calling thread participates by
// claiming chunks of ITS OWN loop off a shared cursor — never by running arbitrary queued
// pool tasks, which may block on unrelated synchronization (a queued task that waits on
// the caller's computation would deadlock against it). Claiming guarantees nested parallel
// sections cannot deadlock, and a 0-worker pool degrades to a plain sequential loop. If chunk bodies throw, the exception
// from the LOWEST-indexed failing chunk is rethrown after all chunks finish — deterministic
// error reporting under nondeterministic scheduling.
// Given the caller's CancelToken, no chunk starts after it fires: a participant polls it
// after claiming a chunk, and once it has fired retires every unclaimed chunk unrun.

#ifndef PROBCON_SRC_EXEC_PARALLEL_H_
#define PROBCON_SRC_EXEC_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/exec/thread_pool.h"

namespace probcon {

// Runs body(chunk_begin, chunk_end, chunk_index) over [begin, end) split into chunks of
// `chunk_size` (the last chunk may be short). Chunks execute concurrently on `pool`
// (nullptr = ThreadPool::Global()); the call returns once every chunk ran or was retired.
void ParallelFor(uint64_t begin, uint64_t end, uint64_t chunk_size,
                 const std::function<void(uint64_t, uint64_t, uint64_t)>& body,
                 ThreadPool* pool = nullptr, const CancelToken* cancel = nullptr);

// Map-reduce over [begin, end): chunk_fn(chunk_begin, chunk_end, chunk_index) -> T per
// chunk, merged by merge(acc, std::move(partial)) in ascending chunk order from `init`.
// Bit-identical for any worker count (including 0) at a fixed chunk_size. kCancelled, with
// no partial merged, once `cancel` has fired, so a body may stop early at a StridePoll.
template <typename T, typename ChunkFn, typename MergeFn>
Result<T> ParallelReduce(uint64_t begin, uint64_t end, uint64_t chunk_size, T init,
                         const ChunkFn& chunk_fn, const MergeFn& merge,
                         ThreadPool* pool = nullptr, const CancelToken* cancel = nullptr) {
  CHECK_GT(chunk_size, 0u);
  std::vector<std::optional<T>> partials(end > begin ? (end - begin - 1) / chunk_size + 1 : 0);
  ParallelFor(
      begin, end, chunk_size,
      [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t chunk_index) {
        partials[chunk_index].emplace(chunk_fn(chunk_begin, chunk_end, chunk_index));
      },
      pool, cancel);
  // A token unfired now never fired during the loop, so every chunk ran to its end.
  if (IsCancelled(cancel)) return CancelledError("cancelled before every chunk ran");
  T acc = std::move(init);
  for (auto& partial : partials) {
    merge(acc, std::move(*partial));
  }
  return acc;
}

// Runs `trials` independent evaluations of fn(trial_index) concurrently — one task per
// trial, sized for heavyweight bodies like full simulator runs — and returns the results
// in trial order. Deterministic whenever fn(i) is a pure function of i.
template <typename Fn>
auto RunTrials(uint64_t trials, const Fn& fn, ThreadPool* pool = nullptr)
    -> std::vector<decltype(fn(uint64_t{0}))> {
  using Result = decltype(fn(uint64_t{0}));
  std::vector<std::optional<Result>> slots(trials);
  ParallelFor(
      0, trials, 1,
      [&](uint64_t begin, uint64_t end, uint64_t /*chunk_index*/) {
        for (uint64_t i = begin; i < end; ++i) {
          slots[i].emplace(fn(i));
        }
      },
      pool);
  std::vector<Result> results;
  results.reserve(trials);
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace probcon

#endif  // PROBCON_SRC_EXEC_PARALLEL_H_
