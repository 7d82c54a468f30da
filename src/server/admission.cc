#include "server/admission.h"

#include <unistd.h>

namespace medvault::server {

namespace {

/// Queue wait after which a connection is answered 503 instead of
/// served.
constexpr uint64_t kMaxQueueWaitMicros = 2 * 1000 * 1000;

}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         obs::MetricsRegistry* metrics)
    : options_(options),
      queued_(metrics->GetCounter("server.queued")),
      shed_timeout_(metrics->GetCounter("server.shed_timeout")),
      depth_(metrics->GetGauge("server.queue_depth")) {}

bool AdmissionController::Offer(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || queue_.size() >= options_.max_queue) return false;
    queue_.emplace_back(fd, std::chrono::steady_clock::now());
    depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  queued_->Increment();
  cv_.notify_one();
  return true;
}

bool AdmissionController::Dequeue(Ticket* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return stopped_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopped and drained
  auto [fd, enqueued_at] = queue_.front();
  queue_.pop_front();
  depth_->Set(static_cast<int64_t>(queue_.size()));
  lock.unlock();

  out->fd = fd;
  out->waited_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - enqueued_at)
          .count());
  out->timed_out = out->waited_micros > kMaxQueueWaitMicros;
  if (out->timed_out) shed_timeout_->Increment();
  return true;
}

void AdmissionController::Stop() {
  std::deque<std::pair<int, TimePoint>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    orphans.swap(queue_);
    depth_->Set(0);
  }
  cv_.notify_all();
  for (auto& [fd, at] : orphans) ::close(fd);
}

}  // namespace medvault::server
