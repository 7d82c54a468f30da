#include "core/group_commit.h"

#include <chrono>
#include <thread>
#include <utility>

namespace medvault::core {

GroupCommitter::GroupCommitter(std::function<Status()> sync_fn)
    : GroupCommitter(std::move(sync_fn), Options()) {}

GroupCommitter::GroupCommitter(std::function<Status()> sync_fn,
                               Options options)
    : sync_fn_(std::move(sync_fn)),
      window_micros_(options.window_micros),
      sleeper_(std::move(options.sleeper)) {
  obs::MetricsRegistry* metrics = options.metrics != nullptr
                                      ? options.metrics
                                      : obs::MetricsRegistry::Default();
  ops_counter_ = metrics->GetCounter("commit.window.sharded.ops");
  syncs_counter_ = metrics->GetCounter("commit.window.sharded.syncs");
  coalesced_counter_ = metrics->GetCounter("commit.window.sharded.coalesced");
}

Status GroupCommitter::Commit() {
  ops_counter_->Increment();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t my_ticket = ++arrivals_;
  ++stats_.ops;
  for (;;) {
    // Covered by a wave that already completed successfully — the
    // barrier ran after our writes, so they are durable.
    if (synced_through_ >= my_ticket) {
      ++stats_.coalesced;
      coalesced_counter_->Increment();
      return Status::OK();
    }
    // Our cohort's wave ran and failed: report it. A *later* wave
    // succeeding would have flipped synced_through_ past us above.
    if (last_wave_end_ >= my_ticket && !last_wave_status_.ok()) {
      ++stats_.coalesced;
      coalesced_counter_->Increment();
      return last_wave_status_;
    }
    if (!leader_active_) break;  // wave in flight doesn't cover us: lead next
    cv_.wait(lock);
  }

  // Leader: linger for cohort pickup, then run one wave for every
  // ticket issued by the time the sync starts.
  leader_active_ = true;
  if (window_micros_ > 0) {
    lock.unlock();
    if (sleeper_) {
      sleeper_(window_micros_);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(window_micros_));
    }
    lock.lock();
  }
  const uint64_t wave_end = arrivals_;
  lock.unlock();

  Status wave_status = sync_fn_();

  lock.lock();
  last_wave_end_ = wave_end;
  last_wave_status_ = wave_status;
  if (wave_status.ok() && wave_end > synced_through_) {
    synced_through_ = wave_end;
  }
  leader_active_ = false;
  ++stats_.waves;
  syncs_counter_->Increment();
  cv_.notify_all();
  return wave_status;
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace medvault::core
