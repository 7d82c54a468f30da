#ifndef MEDVAULT_COMMON_WORKER_POOL_H_
#define MEDVAULT_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace medvault {

/// A small persistent pool for fan-out work (cross-shard batches, sync
/// waves, opens and verification). With zero threads every submission
/// executes inline in submission order — the deterministic mode the
/// crash matrix uses. Concurrent submitters interleave safely; each
/// TaskGroup / RunEach call tracks its own completion state.
///
/// Re-entrancy: work submitted from one of the pool's own worker
/// threads (a pooled task fanning out again) executes inline on that
/// thread instead of queueing. Queueing would have the worker block on
/// the group condvar while occupying the very slot needed to drain it —
/// with enough re-entrant submitters, every worker waits and no one
/// runs, a guaranteed deadlock once all workers are blocked.
class WorkerPool {
 public:
  /// Spawns `threads` workers; 0 means no workers (inline execution).
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one fire-and-forget task. The caller must arrange its own
  /// completion signal (e.g. TaskGroup); the pool only guarantees the
  /// task runs before the pool is destroyed. Executes inline when the
  /// pool has no workers or the caller is a worker.
  void Submit(std::function<void()> task);

  /// The sizing rule of every per-shard fan-out pool: `requested` 0
  /// picks min(width, hardware threads), and a result of 1 spawns no
  /// workers, so RunEach runs inline in index order (deterministic).
  static std::unique_ptr<WorkerPool> ForFanOut(unsigned requested,
                                               unsigned width);

  /// Runs fn(0) .. fn(n-1) as pooled tasks, waits for every one, and
  /// returns the lowest-index error (OK if none). Runs inline in index
  /// order when the pool has no workers or the caller is one of them;
  /// an error never cancels the remaining tasks.
  Status RunEach(size_t n, const std::function<Status(size_t)>& fn);

  unsigned thread_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// True iff the calling thread is one of this pool's workers.
  bool OnWorkerThread() const { return current_pool_ == this; }

 private:
  void Loop();

  /// The pool the current thread works for, if any — how Submit detects
  /// re-entrant submission from a pooled task.
  static thread_local const WorkerPool* current_pool_;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// Completion handle over a *subset* of a pool's work: submit any
/// number of tasks through the group, then Wait() for exactly those —
/// other submitters' tasks on the same pool are invisible to it. This
/// replaces the per-call ad-hoc completion state each fan-out used to
/// allocate. Concurrent Submit calls on one group are not supported;
/// each fan-out owns its group. The destructor waits for any
/// still-pending tasks so a group cannot dangle.
class TaskGroup {
 public:
  /// `pool` is borrowed and must outlive the group.
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one task; runs inline under the pool's inline rules
  /// (no workers, or the caller is a pool worker).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished.
  void Wait();

 private:
  WorkerPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

}  // namespace medvault

#endif  // MEDVAULT_COMMON_WORKER_POOL_H_
