// GroupCommitter contract tests, plus the vault-level durability checks
// that give the contract teeth: N concurrent committers coalesce into
// few waves, the leader hands off cleanly, no committer is ever
// acknowledged before a wave covering it has synced, a failed wave
// fails exactly its cohort, and records acknowledged by
// ShardedVault::CreateRecordsBatchDurable survive a power cut that
// drops every unsynced byte. Runs under TSan in tools/smoke.sh — the
// leader/follower handoff is precisely the code a lost-wakeup or data
// race would corrupt.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/group_commit.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "storage/fault_env.h"
#include "storage/mem_env.h"

namespace medvault {
namespace {

using core::GroupCommitter;
using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using core::Vault;
using core::VaultOptions;

TEST(GroupCommitTest, SingleCommitRunsExactlyOneWave) {
  int syncs = 0;
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer([&] { ++syncs; return Status::OK(); }, options);
  ASSERT_TRUE(committer.Commit().ok());
  EXPECT_EQ(syncs, 1);
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 1u);
  EXPECT_EQ(stats.waves, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.ops")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.syncs")->Value(), 1u);
}

TEST(GroupCommitTest, SyncErrorPropagatesToTheCaller) {
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer([] { return Status::IoError("no media"); },
                           options);
  EXPECT_TRUE(committer.Commit().IsIoError());
  // A failed wave poisons only its own cohort: the next commit starts a
  // fresh wave, and this one succeeds or fails on its own sync.
  int calls = 0;
  GroupCommitter flaky(
      [&] {
        return ++calls == 1 ? Status::IoError("transient") : Status::OK();
      },
      options);
  EXPECT_TRUE(flaky.Commit().IsIoError());
  EXPECT_TRUE(flaky.Commit().ok());
  EXPECT_EQ(calls, 2);
}

TEST(GroupCommitTest, WindowSleeperIsUsedForTheLingering) {
  obs::MetricsRegistry metrics;
  std::vector<uint64_t> slept;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  options.window_micros = 250;
  options.sleeper = [&](uint64_t micros) { slept.push_back(micros); };
  int syncs = 0;
  GroupCommitter committer([&] { ++syncs; return Status::OK(); }, options);
  ASSERT_TRUE(committer.Commit().ok());
  ASSERT_TRUE(committer.Commit().ok());
  // Each commit led its own wave (no concurrency here), so the leader
  // lingered once per wave, for exactly the configured window.
  EXPECT_EQ(slept, (std::vector<uint64_t>{250, 250}));
  EXPECT_EQ(syncs, 2);
}

// A leader blocked inside sync_fn must not stall later arrivals
// forever: they wait, and when the wave ends one of them leads the next
// wave that covers them.
TEST(GroupCommitTest, LeaderHandoffAfterBlockedWave) {
  obs::MetricsRegistry metrics;
  std::mutex mu;
  std::condition_variable cv;
  bool release_first_wave = false;
  std::atomic<int> syncs{0};

  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        if (syncs.fetch_add(1) == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release_first_wave; });
        }
        return Status::OK();
      },
      options);

  std::thread first([&] { EXPECT_TRUE(committer.Commit().ok()); });
  // Wait until the first committer is inside its sync.
  while (syncs.load() == 0) std::this_thread::yield();

  std::thread second([&] { EXPECT_TRUE(committer.Commit().ok()); });
  std::thread third([&] { EXPECT_TRUE(committer.Commit().ok()); });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release_first_wave = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  third.join();

  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 3u);
  // The second and third arrived while wave 1 was in flight; wave 1
  // does not cover them (it began before they arrived), so exactly one
  // of them led wave 2 and the other rode it: 2 waves, 1 coalesced.
  EXPECT_EQ(stats.waves, 2u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(syncs.load(), 2);
}

TEST(GroupCommitTest, FailedWaveFailsExactlyItsCohort) {
  obs::MetricsRegistry metrics;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        int wave = entered.fetch_add(1);
        if (wave == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
          return Status::IoError("wave one dies");
        }
        return Status::OK();
      },
      options);

  std::thread leader([&] { EXPECT_TRUE(committer.Commit().IsIoError()); });
  while (entered.load() == 0) std::this_thread::yield();
  // This committer arrives during the failing wave; it is NOT covered
  // by it, so it must lead a fresh (successful) wave — the failure
  // stays confined to the cohort the failed wave actually covered.
  std::thread later([&] { EXPECT_TRUE(committer.Commit().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  leader.join();
  later.join();
  EXPECT_EQ(entered.load(), 2);
}

// The coalescing claim and the durability claim, together, under real
// concurrency: N threads × M commits each. Every sync wave bumps a
// "durable epoch"; a committer records the epoch it observed *before*
// committing and asserts the epoch after Commit() returned is larger —
// i.e. some wave ran strictly after its request entered. waves < ops
// proves coalescing actually happened.
TEST(GroupCommitTest, ConcurrentCommitsCoalesceWithoutLosingDurability) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;

  obs::MetricsRegistry metrics;
  std::atomic<uint64_t> durable_epoch{0};
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        // Simulated sync latency widens the coalescing window; the
        // epoch bump models "everything outstanding is now on media".
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        durable_epoch.fetch_add(1);
        return Status::OK();
      },
      options);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        const uint64_t before = durable_epoch.load();
        if (!committer.Commit().ok() || durable_epoch.load() <= before) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0)
      << "a commit was acknowledged before a covering wave synced";
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(stats.waves + stats.coalesced, stats.ops);
  EXPECT_LT(stats.waves, stats.ops) << "no coalescing ever happened";
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.syncs")->Value(),
            stats.waves);
}

// No lost wakeups: with a nonzero window and many more committers than
// waves, every committer must eventually return. A lost notify_all
// would hang this test — the ctest timeout turns that into a failure.
TEST(GroupCommitTest, NoLostWakeupsUnderWindowedLoad) {
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  options.window_micros = 500;
  GroupCommitter committer([] { return Status::OK(); }, options);

  std::vector<std::thread> threads;
  for (int t = 0; t < 12; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; i++) ASSERT_TRUE(committer.Commit().ok());
    });
  }
  for (auto& t : threads) t.join();
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 120u);
  EXPECT_LT(stats.waves, stats.ops);
}

// ---------------------------------------------------------------------------
// Vault-level durability: what ShardedVault::CreateRecordsBatchDurable
// acknowledges must survive a power cut, with and without a commit
// window. One shard: the committer is the same at any shard count.
// ---------------------------------------------------------------------------

VaultOptions TestOptions(storage::Env* env, const Clock* clock) {
  VaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "group-commit-entropy";
  options.signer_height = 4;
  return options;
}

ShardedVaultOptions OneShardOptions(storage::Env* env, const Clock* clock,
                                    uint64_t window_micros) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "group-commit-entropy";
  options.num_shards = 1;
  options.signer_height = 4;
  options.commit_window_micros = window_micros;
  return options;
}

void RunDurableBatchCrashCheck(uint64_t window_micros) {
  storage::MemEnv env;
  env.SetCrashTrackingEnabled(true);
  ManualClock clock(1000000);
  std::vector<std::string> acked;
  {
    auto opened =
        ShardedVault::Open(OneShardOptions(&env, &clock, window_micros));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ShardedVault* vault = opened->get();
    ASSERT_TRUE(
        vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok());
    ASSERT_TRUE(vault->AssignCare("admin", "dr", "p").ok());
    ASSERT_TRUE(vault->SyncAll().ok());

    // Two concurrent durable batches: both acked sets must survive the
    // cut no matter how their windows coalesced.
    std::mutex mu;
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; t++) {
      writers.emplace_back([&, t] {
        auto ids = vault->CreateRecordsBatchDurable(
            "dr",
            {{"p", "text/plain", "note " + std::to_string(t) + "a", {"w"},
              "hipaa-6y"},
             {"p", "text/plain", "note " + std::to_string(t) + "b", {"w"},
              "hipaa-6y"}});
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        acked.insert(acked.end(), ids->begin(), ids->end());
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(acked.size(), 4u);
    // Power cut: the vault object is destroyed with the plug pulled —
    // nothing after the last acked wave may be assumed.
  }
  env.CrashAndRecover(storage::CrashMode::kDropUnsynced);

  auto reopened =
      ShardedVault::Open(OneShardOptions(&env, &clock, window_micros));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ShardedVault* vault = reopened->get();
  EXPECT_TRUE(vault->VerifyAudit().ok());
  for (const auto& id : acked) {
    auto read = vault->ReadRecord("dr", id);
    EXPECT_TRUE(read.ok())
        << "durably acked record lost in the cut: " << id << ": "
        << read.status().ToString();
  }
}

TEST(GroupCommitVaultTest, AckedDurableBatchSurvivesPowerCutNoWindow) {
  RunDurableBatchCrashCheck(/*window_micros=*/0);
}

TEST(GroupCommitVaultTest, AckedDurableBatchSurvivesPowerCutWithWindow) {
  RunDurableBatchCrashCheck(/*window_micros=*/300);
}

TEST(GroupCommitVaultTest, WindowedIngestCoalescesSyncWaves) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  obs::MetricsRegistry metrics;
  ShardedVaultOptions options =
      OneShardOptions(&env, &clock, /*window_micros=*/400);
  options.metrics = &metrics;
  auto opened = ShardedVault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedVault* vault = opened->get();
  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok());
  ASSERT_TRUE(vault->AssignCare("admin", "dr", "p").ok());
  ASSERT_TRUE(vault->SyncAll().ok());
  const uint64_t setup_syncs =
      metrics.GetCounter("commit.window.sharded.syncs")->Value();

  constexpr int kWriters = 6;
  // Released together: threads started one by one can reach the
  // committer more than a window apart (seen under TSan), and then each
  // pays its own wave.
  std::latch start(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      start.arrive_and_wait();
      auto ids = vault->CreateRecordsBatchDurable(
          "dr", {{"p", "text/plain", "coalesce " + std::to_string(t), {"c"},
                  "hipaa-6y"}});
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    });
  }
  for (auto& w : writers) w.join();

  const uint64_t ops =
      metrics.GetCounter("commit.window.sharded.ops")->Value();
  const uint64_t syncs =
      metrics.GetCounter("commit.window.sharded.syncs")->Value() - setup_syncs;
  EXPECT_GE(ops, static_cast<uint64_t>(kWriters));
  // With a 400us window and 6 concurrent writers, at least some must
  // have shared a wave. (Exact counts are scheduling-dependent.)
  EXPECT_LT(syncs, static_cast<uint64_t>(kWriters))
      << "every durable batch paid its own fsync — no group commit";
}

// ---------------------------------------------------------------------------
// Wave order: one SyncAll is a fixed sequence of per-file Sync() calls.
// The side logs come first, the catalog trails its segment bytes, and
// the state log lands strictly last (the commit point).
// ---------------------------------------------------------------------------

/// Records "<dir>/<file>" of every WritableFile::Sync that goes through
/// it, in call order.
class SyncOrderEnv : public storage::Env {
 public:
  explicit SyncOrderEnv(storage::Env* base) : base_(base) {}

  std::vector<std::string> TakeSyncs() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.swap(syncs_);
    return out;
  }

  Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<storage::SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<storage::RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<storage::WritableFile>* r) override {
    return Wrap(f, base_->NewWritableFile(f, r), r);
  }
  Status NewAppendableFile(
      const std::string& f,
      std::unique_ptr<storage::WritableFile>* r) override {
    return Wrap(f, base_->NewAppendableFile(f, r), r);
  }
  Status NewRandomRWFile(const std::string& f,
                         std::unique_ptr<storage::RandomRWFile>* r) override {
    return base_->NewRandomRWFile(f, r);
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDirIfMissing(const std::string& d) override {
    return base_->CreateDirIfMissing(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  Status RenameFile(const std::string& s, const std::string& t) override {
    return base_->RenameFile(s, t);
  }
  Status Truncate(const std::string& f, uint64_t s) override {
    return base_->Truncate(f, s);
  }

 private:
  class File : public storage::WritableFile {
   public:
    File(SyncOrderEnv* env, std::string name,
         std::unique_ptr<storage::WritableFile> base)
        : env_(env), name_(std::move(name)), base_(std::move(base)) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      {
        std::lock_guard<std::mutex> lock(env_->mu_);
        env_->syncs_.push_back(name_);
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    SyncOrderEnv* env_;
    std::string name_;
    std::unique_ptr<storage::WritableFile> base_;
  };

  Status Wrap(const std::string& fname, Status s,
              std::unique_ptr<storage::WritableFile>* r) {
    if (s.ok()) *r = std::make_unique<File>(this, fname, std::move(*r));
    return s;
  }

  storage::Env* base_;
  std::mutex mu_;
  std::vector<std::string> syncs_;
};

std::string Dir(const std::string& path) {
  return path.substr(0, path.rfind('/'));
}

std::string Base(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

/// Checks one vault's wave: segment, the four side logs, the catalog,
/// then the state log, all under `dir`.
void ExpectWave(const std::vector<std::string>& syncs, size_t at,
                const std::string& dir) {
  ASSERT_GE(syncs.size(), at + 7);
  EXPECT_EQ(Dir(syncs[at]), dir + "/segments");
  EXPECT_EQ(Base(syncs[at]).rfind("seg-", 0), 0u) << syncs[at];
  const std::vector<std::string> rest = {"index.log",   "audit.log",
                                         "provenance.log", "keys.db",
                                         "catalog.log", "state.log"};
  for (size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(syncs[at + 1 + i], dir + "/" + rest[i]);
  }
}

TEST(SyncOrderTest, VaultSyncAllIsSevenSyncsInCommitOrder) {
  storage::MemEnv mem;
  SyncOrderEnv env(&mem);
  ManualClock clock(1000000);
  auto opened = Vault::Open(TestOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Vault* vault = opened->get();
  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok());
  ASSERT_TRUE(vault->AssignCare("admin", "dr", "p").ok());
  ASSERT_TRUE(
      vault->CreateRecord("dr", "p", "text/plain", "note", {"k"}, "hipaa-6y")
          .ok());

  env.TakeSyncs();
  ASSERT_TRUE(vault->SyncAll().ok());
  const std::vector<std::string> syncs = env.TakeSyncs();
  ASSERT_EQ(syncs.size(), 7u) << ::testing::PrintToString(syncs);
  ExpectWave(syncs, 0, "vault");
}

TEST(SyncOrderTest, ShardedSyncAllRepeatsTheWavePerShard) {
  constexpr uint32_t kShards = 3;
  storage::MemEnv mem;
  SyncOrderEnv env(&mem);
  ManualClock clock(1000000);
  ShardedVaultOptions options;
  options.env = &env;
  options.dir = "sharded";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "sync-order-entropy";
  options.num_shards = kShards;
  options.signer_height = 4;
  options.ingest_threads = 1;  // inline, in shard order
  auto opened = ShardedVault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedVault* vault = opened->get();
  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
  // Enough patients that every shard holds a record, so every shard has
  // an active segment to sync.
  for (int p = 0; p < 12; ++p) {
    const std::string pat = "p" + std::to_string(p);
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin", {pat, Role::kPatient, pat}).ok());
    ASSERT_TRUE(vault->AssignCare("admin", "dr", pat).ok());
    ASSERT_TRUE(
        vault->CreateRecord("dr", pat, "text/plain", "note", {"k"}, "hipaa-6y")
            .ok());
  }

  env.TakeSyncs();
  ASSERT_TRUE(vault->SyncAll().ok());
  const std::vector<std::string> syncs = env.TakeSyncs();
  ASSERT_EQ(syncs.size(), 7u * kShards) << ::testing::PrintToString(syncs);
  std::set<std::string> shard_dirs;
  for (uint32_t k = 0; k < kShards; ++k) {
    const std::string dir = Dir(syncs[7 * k + 6]);
    shard_dirs.insert(dir);
    ExpectWave(syncs, 7 * k, dir);
  }
  EXPECT_EQ(shard_dirs.size(), kShards);
}

}  // namespace
}  // namespace medvault
