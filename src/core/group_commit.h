#ifndef MEDVAULT_CORE_GROUP_COMMIT_H_
#define MEDVAULT_CORE_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/status.h"
#include "obs/metrics.h"

namespace medvault::core {

/// Coalesces concurrent callers' durability requests into one sync per
/// commit window (leader–follower handoff). The first waiter of a
/// window becomes its leader: it optionally lingers `window_micros` to
/// gather a cohort, runs the sync function once, and wakes everyone the
/// wave covered. Followers whose request arrived before the wave began
/// ride it for free — that is the fsync/op collapse.
///
/// Durability contract: Commit() does not return OK until a sync wave
/// that *began after the call entered* has completed successfully, so
/// everything the caller wrote before Commit() is on stable media by
/// the time it is acknowledged. A failed wave fails exactly the cohort
/// it covered; later callers start a fresh wave. A later successful
/// wave may acknowledge an earlier ticket — sync is a barrier over
/// everything outstanding, so a newer wave covers older writes too.
///
/// ShardedVault owns the one committer; its wave syncs every shard.
///
/// Metrics:
///   commit.window.sharded.ops        Commit() calls
///   commit.window.sharded.syncs      sync waves actually run
///   commit.window.sharded.coalesced  commits acknowledged by someone
///                                    else's wave
class GroupCommitter {
 public:
  struct Options {
    /// How long a leader lingers for cohort pickup before syncing.
    /// 0 = opportunistic-only: no added latency, coalescing happens
    /// only while a wave is already in flight.
    uint64_t window_micros = 0;
    /// Null uses the process-wide registry.
    obs::MetricsRegistry* metrics = nullptr;
    /// Injectable window wait (tests pass a recorder). Null sleeps.
    std::function<void(uint64_t micros)> sleeper;
  };

  /// `sync_fn` runs outside the committer lock and must be callable
  /// from any committing thread.
  explicit GroupCommitter(std::function<Status()> sync_fn);
  GroupCommitter(std::function<Status()> sync_fn, Options options);

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Blocks until this caller's writes are covered by a completed sync
  /// wave; returns that wave's status.
  Status Commit();

  struct Stats {
    uint64_t ops = 0;        ///< Commit() calls completed
    uint64_t waves = 0;      ///< sync waves run
    uint64_t coalesced = 0;  ///< commits that rode another's wave
  };
  Stats stats() const;

 private:
  std::function<Status()> sync_fn_;
  const uint64_t window_micros_;
  std::function<void(uint64_t)> sleeper_;

  obs::Counter* ops_counter_;
  obs::Counter* syncs_counter_;
  obs::Counter* coalesced_counter_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t arrivals_ = 0;        ///< tickets issued
  uint64_t synced_through_ = 0;  ///< highest ticket covered by an OK wave
  uint64_t last_wave_end_ = 0;   ///< highest ticket any wave has covered
  Status last_wave_status_;      ///< outcome of the wave ending at last_wave_end_
  bool leader_active_ = false;
  Stats stats_;  // guarded by mu_
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_GROUP_COMMIT_H_
