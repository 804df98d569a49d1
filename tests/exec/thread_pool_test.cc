// Unit tests for the exec runtime: pool scheduling, the parallel loop helpers, and the
// determinism contract at the primitive level (algorithm-level determinism is covered by
// tests/exec/determinism_test.cc).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/exec/parallel.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/prob/kahan.h"

namespace probcon {
namespace {

// Blocks until `count` tasks called Arrive().
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}

  void Arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) {
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return remaining_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int remaining_;
};

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    constexpr int kTasks = 64;
    std::atomic<int> executed{0};
    Latch latch(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        executed.fetch_add(1);
        latch.Arrive();
      });
    }
    latch.Wait();
    EXPECT_EQ(executed.load(), kTasks) << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { executed.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining.
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolTest, TryRunOneTaskReportsEmpty) {
  ThreadPool pool(0);
  EXPECT_FALSE(pool.TryRunOneTask());
  std::atomic<int> executed{0};
  // With 0 workers Submit runs inline, so the queue stays empty.
  pool.Submit([&] { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 1);
  EXPECT_FALSE(pool.TryRunOneTask());
}

TEST(ThreadPoolTest, StatsCountSubmittedAndExecuted) {
  ThreadPool pool(2);
  constexpr int kTasks = 32;
  Latch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] { latch.Arrive(); });
  }
  latch.Wait();
  // tasks_executed is bumped after each task body returns; give the last increments a
  // moment to land rather than racing the workers.
  ThreadPool::Stats stats = pool.GetStats();
  for (int spin = 0; spin < 1000 && stats.tasks_executed < kTasks; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = pool.GetStats();
  }
  EXPECT_EQ(stats.tasks_submitted, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(stats.tasks_executed, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(stats.worker_busy_seconds.size(), 2u);
}

TEST(ThreadPoolTest, ExportMetricsPopulatesRegistry) {
  // 0-worker pool: Submit executes inline, so the counters are settled synchronously
  // (with workers, tasks_executed is incremented after the task body returns, and a
  // just-released latch doesn't guarantee the increment is visible yet).
  ThreadPool pool(0);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] {});
  }
  MetricsRegistry registry;
  pool.ExportMetrics(registry, "exec.pool");
  const Counter* executed = registry.FindCounter("exec.pool.tasks_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->value(), 4u);
  ASSERT_NE(registry.FindCounter("exec.pool.tasks_submitted"), nullptr);
  ASSERT_NE(registry.FindCounter("exec.pool.steals"), nullptr);
}

TEST(ThreadPoolTest, DefaultWorkerCountHonorsEnvironment) {
  ASSERT_EQ(setenv("PROBCON_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultWorkerCount(), 3);
  ASSERT_EQ(setenv("PROBCON_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultWorkerCount(), 0);
  // Garbage and out-of-range values fall back to hardware concurrency (>= 1).
  ASSERT_EQ(setenv("PROBCON_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1);
  ASSERT_EQ(setenv("PROBCON_THREADS", "-2", 1), 0);
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1);
  ASSERT_EQ(unsetenv("PROBCON_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1);
}

TEST(ThreadPoolTest, ScopedOverrideReplacesGlobalAndRestores) {
  ThreadPool& original = ThreadPool::Global();
  {
    ScopedThreadPool scoped(2);
    EXPECT_EQ(&ThreadPool::Global(), &scoped.pool());
    EXPECT_EQ(ThreadPool::Global().worker_count(), 2);
    {
      ScopedThreadPool nested(1);
      EXPECT_EQ(&ThreadPool::Global(), &nested.pool());
    }
    EXPECT_EQ(&ThreadPool::Global(), &scoped.pool());
  }
  EXPECT_EQ(&ThreadPool::Global(), &original);
}

TEST(ParallelForTest, CoversRangeExactlyOnceWithCorrectChunkIndices) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    constexpr uint64_t kBegin = 3;
    constexpr uint64_t kEnd = 103;
    constexpr uint64_t kChunk = 7;
    std::vector<std::atomic<int>> visits(kEnd);
    for (auto& v : visits) {
      v.store(0);
    }
    std::mutex chunks_mutex;
    std::vector<std::pair<uint64_t, uint64_t>> chunks;  // (chunk_index, chunk_begin).
    ParallelFor(
        kBegin, kEnd, kChunk,
        [&](uint64_t chunk_begin, uint64_t chunk_end, uint64_t chunk_index) {
          EXPECT_EQ(chunk_begin, kBegin + chunk_index * kChunk);
          EXPECT_LE(chunk_end, kEnd);
          for (uint64_t i = chunk_begin; i < chunk_end; ++i) {
            visits[i].fetch_add(1);
          }
          std::lock_guard<std::mutex> lock(chunks_mutex);
          chunks.emplace_back(chunk_index, chunk_begin);
        },
        &pool);
    for (uint64_t i = kBegin; i < kEnd; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "i=" << i << " workers=" << workers;
    }
    EXPECT_EQ(chunks.size(), (kEnd - kBegin + kChunk - 1) / kChunk);
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(
      5, 5, 4, [&](uint64_t, uint64_t, uint64_t) { ran = true; }, &pool);
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, NestedParallelSectionsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  ParallelFor(
      0, 4, 1,
      [&](uint64_t, uint64_t, uint64_t) {
        ParallelFor(
            0, 8, 2, [&](uint64_t b, uint64_t e, uint64_t) {
              inner_total.fetch_add(static_cast<int>(e - b));
            },
            &pool);
      },
      &pool);
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ParallelForTest, LowestChunkExceptionWinsAndPoolSurvives) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    try {
      ParallelFor(
          0, 100, 10,
          [&](uint64_t, uint64_t, uint64_t chunk_index) {
            if (chunk_index == 3 || chunk_index == 7) {
              throw std::runtime_error("chunk " + std::to_string(chunk_index));
            }
          },
          &pool);
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "chunk 3") << "workers=" << workers;
    }
    // The pool must stay usable after an exception unwound a batch.
    std::atomic<int> executed{0};
    ParallelFor(
        0, 10, 1, [&](uint64_t, uint64_t, uint64_t) { executed.fetch_add(1); }, &pool);
    EXPECT_EQ(executed.load(), 10);
  }
}

TEST(ParallelForTest, StopsHandingOutChunksOnceTheTokenFires) {
  constexpr uint64_t kChunks = 1000;
  constexpr uint64_t kFiringChunk = 10;
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    CancelToken token;
    std::atomic<bool> fired{false};
    std::atomic<int> started_after_fire{0};
    std::vector<std::atomic<bool>> ran(kChunks);
    ParallelFor(
        0, kChunks, 1,
        [&](uint64_t, uint64_t, uint64_t chunk) {
          if (fired.load()) started_after_fire.fetch_add(1);
          ran[chunk].store(true);
          if (chunk == kFiringChunk) {
            token.Cancel();
            fired.store(true);
          }
        },
        &pool, &token);
    EXPECT_TRUE(ran[kFiringChunk].load()) << "workers=" << workers;
    if (workers == 0) {
      for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
        EXPECT_EQ(ran[chunk].load(), chunk <= kFiringChunk) << "chunk=" << chunk;
      }
    } else {
      // Each other participant may have claimed and polled a chunk just before the fire.
      EXPECT_LE(started_after_fire.load(), workers + 1) << "workers=" << workers;
    }

    CancelToken pre_fired;
    pre_fired.Cancel();
    std::atomic<int> chunks_run{0};
    const auto count_chunk = [&](uint64_t, uint64_t, uint64_t) {
      chunks_run.fetch_add(1);
      return 1;
    };
    ParallelFor(
        0, kChunks, 1, [&](uint64_t b, uint64_t e, uint64_t c) { count_chunk(b, e, c); },
        &pool, &pre_fired);
    const Result<int> reduced = ParallelReduce<int>(
        0, kChunks, 1, 0, count_chunk, [](int& acc, int partial) { acc += partial; }, &pool,
        &pre_fired);
    EXPECT_EQ(chunks_run.load(), 0) << "workers=" << workers;
    ASSERT_FALSE(reduced.ok());
    EXPECT_EQ(reduced.status().code(), StatusCode::kCancelled);
  }
}

TEST(ParallelReduceTest, KahanSumBitIdenticalAcrossWorkerCounts) {
  // An adversarial mix of magnitudes: naive reassociation would change the result, the
  // chunk-ordered Kahan merge must not.
  const auto chunk_fn = [](uint64_t begin, uint64_t end, uint64_t) {
    KahanSum partial;
    for (uint64_t i = begin; i < end; ++i) {
      partial.Add(1e16 / static_cast<double>(i + 1));
      partial.Add(3.14159e-7 * static_cast<double>(i % 97));
    }
    return partial;
  };
  const auto merge = [](KahanSum& acc, KahanSum&& partial) { acc.Merge(partial); };
  double reference = 0.0;
  bool have_reference = false;
  for (const int workers : {0, 1, 2, 8}) {
    ThreadPool pool(workers);
    const KahanSum total =
        *ParallelReduce<KahanSum>(0, 100'000, 1024, KahanSum(), chunk_fn, merge, &pool);
    if (!have_reference) {
      reference = total.Total();
      have_reference = true;
    } else {
      EXPECT_EQ(total.Total(), reference) << "workers=" << workers;
    }
  }
}

TEST(RunTrialsTest, ReturnsResultsInTrialOrder) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    const auto results =
        RunTrials(50, [](uint64_t trial) { return trial * trial; }, &pool);
    ASSERT_EQ(results.size(), 50u);
    for (uint64_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i);
    }
  }
}

TEST(RunTrialsTest, MoveOnlyResultsSupported) {
  ThreadPool pool(2);
  const auto results = RunTrials(
      8, [](uint64_t trial) { return std::make_unique<uint64_t>(trial); }, &pool);
  for (uint64_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(*results[i], i);
  }
}

}  // namespace
}  // namespace probcon
