#include "common/worker_pool.h"

#include <algorithm>
#include <utility>

namespace medvault {

thread_local const WorkerPool* WorkerPool::current_pool_ = nullptr;

WorkerPool::WorkerPool(unsigned threads) {
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  // Inline when there is no one to hand the task to — and, critically,
  // when the submitter IS a pool worker: blocking a worker on a group
  // condvar while its tasks sit behind it in the queue deadlocks as
  // soon as every worker does it (see class comment).
  if (threads_.empty() || OnWorkerThread()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

std::unique_ptr<WorkerPool> WorkerPool::ForFanOut(unsigned requested,
                                                  unsigned width) {
  unsigned threads = requested;
  if (threads == 0) {
    const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
    threads = std::min(width, hw);
  }
  return std::make_unique<WorkerPool>(threads > 1 ? threads : 0);
}

Status WorkerPool::RunEach(size_t n, const std::function<Status(size_t)>& fn) {
  std::vector<Status> statuses(n);
  TaskGroup group(this);
  for (size_t i = 0; i < n; ++i) {
    group.Submit([&fn, &statuses, i] { statuses[i] = fn(i); });
  }
  group.Wait();
  for (const Status& status : statuses) MEDVAULT_RETURN_IF_ERROR(status);
  return Status::OK();
}

void WorkerPool::Loop() {
  current_pool_ = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  if (pool_->thread_count() == 0 || pool_->OnWorkerThread()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)] {
    task();
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace medvault
