#include "src/exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>

#include "src/common/check.h"
#include "src/common/thread_annotations.h"

namespace probcon {
namespace {

// Shared state of one ParallelFor call. Heap-allocated and owned jointly with the helper
// tasks: a helper that never got scheduled before the loop finished elsewhere may run
// after ParallelFor returned — it then finds the cursor exhausted and exits without
// touching anything but the cursor, which the shared_ptr keeps alive.
struct ForGroup {
  std::function<void(uint64_t, uint64_t, uint64_t)> body;
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t chunk_size = 0;
  uint64_t chunks = 0;
  const CancelToken* cancel = nullptr;  // Read only by a participant holding a chunk.
  std::atomic<uint64_t> next_chunk{0};
  // Completion bookkeeping. The group mutex is a LEAF: chunk bodies run OUTSIDE it, and
  // nothing else is ever acquired while it is held (see DESIGN.md decision 12).
  std::mutex mutex;
  std::condition_variable done;
  uint64_t completed PROBCON_GUARDED_BY(mutex) = 0;
  std::exception_ptr error PROBCON_GUARDED_BY(mutex);
  uint64_t error_chunk PROBCON_GUARDED_BY(mutex) = std::numeric_limits<uint64_t>::max();
};

// Claims chunks off the group's cursor and runs them until none remain. This is the ONLY
// work a ParallelFor participant ever executes while a loop is outstanding. In particular
// the waiting caller must never fall back to running arbitrary queued pool tasks: a queued
// task is allowed to block (e.g. a serve request waiting on a single-flight cache leader),
// and executing one on the stack of the very computation it waits for deadlocks the
// process. Strict chunk-claiming makes the caller's participation closed over this loop's
// own work, which is what actually guarantees nested parallel sections cannot deadlock.
void RunChunks(const std::shared_ptr<ForGroup>& group) {
  while (true) {
    const uint64_t chunk = group->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= group->chunks) {
      return;
    }
    // A claimed, unfinished chunk keeps ParallelFor waiting, so the caller's token is alive.
    // Once it has fired, retire this chunk and every unclaimed one without running them.
    uint64_t retired = 1;
    std::exception_ptr error;
    if (IsCancelled(group->cancel)) {
      retired += group->chunks - std::min(group->chunks, group->next_chunk.exchange(group->chunks));
    } else {
      const uint64_t chunk_begin = group->begin + chunk * group->chunk_size;
      try {
        group->body(chunk_begin, std::min(group->end, chunk_begin + group->chunk_size), chunk);
      } catch (...) {
        error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(group->mutex);
    if (error && chunk < group->error_chunk) {
      group->error_chunk = chunk;
      group->error = error;
    }
    if ((group->completed += retired) == group->chunks) {
      group->done.notify_all();
    }
  }
}

}  // namespace

// NO_THREAD_SAFETY_ANALYSIS: the completion wait reads ForGroup::completed under a
// std::unique_lock, which clang's analysis cannot follow; probcon-lint still covers it.
void ParallelFor(uint64_t begin, uint64_t end, uint64_t chunk_size,
                 const std::function<void(uint64_t, uint64_t, uint64_t)>& body,
                 ThreadPool* pool, const CancelToken* cancel) PROBCON_NO_THREAD_SAFETY_ANALYSIS {
  CHECK_GT(chunk_size, 0u);
  const uint64_t total = end > begin ? end - begin : 0;
  if (total == 0) {
    return;
  }
  ThreadPool& executor = pool != nullptr ? *pool : ThreadPool::Global();
  const uint64_t chunks = (total + chunk_size - 1) / chunk_size;
  if (chunks == 1 || executor.worker_count() == 0) {
    // Sequential fast path, in chunk order; exceptions propagate directly.
    for (uint64_t chunk = 0; chunk < chunks && !IsCancelled(cancel); ++chunk) {
      const uint64_t chunk_begin = begin + chunk * chunk_size;
      const uint64_t chunk_end = std::min(end, chunk_begin + chunk_size);
      body(chunk_begin, chunk_end, chunk);
    }
    return;
  }

  auto group = std::make_shared<ForGroup>();
  group->body = body;  // Copied: a late helper may outlive the caller's reference.
  group->begin = begin;
  group->end = end;
  group->chunk_size = chunk_size;
  group->chunks = chunks;
  group->cancel = cancel;

  // One helper per worker (capped by the chunks the caller won't take itself). Helpers
  // that find the cursor already exhausted exit immediately, so over-submitting is
  // harmless; under-submitting just means the caller claims more chunks.
  const uint64_t helpers =
      std::min(chunks - 1, static_cast<uint64_t>(executor.worker_count()));
  for (uint64_t i = 0; i < helpers; ++i) {
    executor.Submit([group]() { RunChunks(group); });
  }
  RunChunks(group);

  // Every chunk is claimed or retired once the caller's loop exits; wait only for claimed
  // chunks still finishing on workers — a bounded wait, no generic task-stealing.
  std::unique_lock<std::mutex> lock(group->mutex);
  while (group->completed != group->chunks) {
    group->done.wait(lock);
  }
  if (group->error) {
    std::rethrow_exception(group->error);
  }
}

}  // namespace probcon
