// WorkerPool tests — most importantly the re-entrant fan-out regression:
// a pooled task fanning out through the same pool used to queue its
// sub-batch and block on the batch condvar while holding the worker
// slot that sub-batch needed, deadlocking the pool as soon as every
// worker was a blocked submitter. The fix executes re-entrant RunEach
// inline on the worker thread; these tests would hang (and trip the
// ctest timeout) under the old behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/worker_pool.h"

namespace medvault::core {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskAndWaitsForCompletion) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> completed{0};
  EXPECT_TRUE(pool.RunEach(64, [&](size_t) {
                    completed++;
                    return Status::OK();
                  }).ok());
  // RunEach returning IS the completion barrier.
  EXPECT_EQ(completed.load(), 64);
}

TEST(WorkerPoolTest, ZeroThreadsRunsInlineInIndexOrder) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<size_t> order;
  EXPECT_TRUE(pool.RunEach(8, [&](size_t i) {
                    order.push_back(i);
                    return Status::OK();
                  }).ok());
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// Every task runs even when some fail, and the caller sees the error of
// the lowest failing index — not whichever task failed first in time.
TEST(WorkerPoolTest, RunEachReturnsLowestIndexErrorAfterAllTasks) {
  for (unsigned threads : {0u, 3u}) {
    WorkerPool pool(threads);
    std::atomic<int> ran{0};
    Status status = pool.RunEach(16, [&](size_t i) {
      ran++;
      if (i == 11) return Status::IoError("eleven");
      if (i == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return Status::NotFound("five");
      }
      return Status::OK();
    });
    EXPECT_EQ(ran.load(), 16) << threads;
    EXPECT_TRUE(status.IsNotFound()) << threads << ": " << status.ToString();
  }
}

TEST(WorkerPoolTest, ForFanOutSizesPoolsOneWay) {
  // 1 forces inline sequential execution; an explicit count is kept.
  EXPECT_EQ(WorkerPool::ForFanOut(1, 8)->thread_count(), 0u);
  EXPECT_EQ(WorkerPool::ForFanOut(3, 8)->thread_count(), 3u);
  // 0 picks min(width, hardware threads); a width of 1 is inline.
  EXPECT_EQ(WorkerPool::ForFanOut(0, 1)->thread_count(), 0u);
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  const unsigned expected = std::min(2u, hw);
  EXPECT_EQ(WorkerPool::ForFanOut(0, 2)->thread_count(),
            expected > 1 ? expected : 0u);
}

TEST(WorkerPoolTest, OnWorkerThreadDistinguishesPoolThreads) {
  WorkerPool pool(2);
  WorkerPool other(1);
  EXPECT_FALSE(pool.OnWorkerThread());
  std::atomic<int> on_pool{0};
  std::atomic<int> on_other{0};
  EXPECT_TRUE(pool.RunEach(4, [&](size_t) {
                    if (pool.OnWorkerThread()) on_pool++;
                    if (other.OnWorkerThread()) on_other++;
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(on_pool.load(), 4);
  EXPECT_EQ(on_other.load(), 0) << "worker claims membership in foreign pool";
}

// The deadlock regression. 2 workers, 4 outer tasks, each outer task
// fans out 4 inner tasks through the SAME pool. Pre-fix: both workers
// pick up outer tasks, queue their inner batches, and block on the
// batch condvar — with no free worker left to drain the queue, the
// pool is wedged forever. Post-fix: the inner RunEach detects it is on
// a worker thread and executes inline, so all 16 inner tasks complete.
TEST(WorkerPoolTest, ReentrantRunEachFromWorkerDoesNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> inner_completed{0};
  std::atomic<int> outer_on_worker{0};
  EXPECT_TRUE(pool.RunEach(4, [&](size_t) {
                    if (pool.OnWorkerThread()) outer_on_worker++;
                    return pool.RunEach(4, [&](size_t) {
                      inner_completed++;
                      return Status::OK();
                    });
                  }).ok());
  EXPECT_EQ(outer_on_worker.load(), 4);
  EXPECT_EQ(inner_completed.load(), 16);
}

// Two levels of re-entrancy (a pooled task fans out, and ITS tasks fan
// out again) must also complete — the inline path recurses safely.
TEST(WorkerPoolTest, DoublyNestedReentrantRunEach) {
  WorkerPool pool(2);
  std::atomic<int> leaf{0};
  auto fan_out = [&pool](size_t n, const std::function<Status(size_t)>& fn) {
    return pool.RunEach(n, fn);
  };
  EXPECT_TRUE(fan_out(3, [&](size_t) {
                return fan_out(3, [&](size_t) {
                  return fan_out(3, [&](size_t) {
                    leaf++;
                    return Status::OK();
                  });
                });
              }).ok());
  EXPECT_EQ(leaf.load(), 27);
}

// Concurrent RunEach calls from independent external threads share the
// workers without crosstalk: each call returns only when its OWN batch
// is done.
TEST(WorkerPoolTest, ConcurrentExternalBatchesTrackSeparately) {
  WorkerPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kTasksPerBatch = 50;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      std::atomic<int> mine{0};
      EXPECT_TRUE(pool.RunEach(kTasksPerBatch, [&](size_t) {
                        mine++;
                        total++;
                        return Status::OK();
                      }).ok());
      EXPECT_EQ(mine.load(), kTasksPerBatch);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kTasksPerBatch);
}

// ---------------------------------------------------------------------------
// TaskGroup: completion handle over a subset of a pool's work.
// ---------------------------------------------------------------------------

TEST(TaskGroupTest, WaitCoversExactlyItsOwnTasks) {
  WorkerPool pool(3);
  std::atomic<int> mine{0};
  std::atomic<int> theirs{0};
  std::atomic<bool> release_theirs{false};

  // A stranger's slow task on the same pool must be invisible to the
  // group: Wait() returns once the group's OWN tasks are done, even
  // while the stranger is still blocked.
  pool.Submit([&] {
    while (!release_theirs.load()) std::this_thread::yield();
    theirs++;
  });
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) group.Submit([&] { mine++; });
    group.Wait();
    EXPECT_EQ(mine.load(), 16);
  }
  EXPECT_EQ(theirs.load(), 0) << "group waited on a stranger's task";
  release_theirs.store(true);
  // Pool destructor drains the stranger.
}

TEST(TaskGroupTest, ZeroThreadPoolRunsInlineInSubmissionOrder) {
  WorkerPool pool(0);
  TaskGroup group(&pool);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) group.Submit([&order, i] { order.push_back(i); });
  // Inline mode: everything already ran, Wait is a no-op.
  group.Wait();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskGroupTest, ReentrantSubmitFromWorkerRunsInlineNoDeadlock) {
  // Same hazard as re-entrant RunEach: a pooled task fanning out through
  // a group on its own pool must execute inline, or workers end up
  // blocked in Wait() holding the slots their sub-tasks need. Hangs
  // (ctest timeout) on regression.
  WorkerPool pool(2);
  std::atomic<int> leaf{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 3; ++j) inner.Submit([&] { leaf++; });
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaf.load(), 12);
}

TEST(TaskGroupTest, DestructorWaitsForPendingTasks) {
  WorkerPool pool(2);
  std::atomic<int> done{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        done++;
      });
    }
    // No explicit Wait: the destructor is the barrier.
  }
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace medvault::core
