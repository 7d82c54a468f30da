// Batch I/O contract tests: the completion-based SubmitWrites /
// SubmitSyncs API on the default (inline) backend, the AsyncEnv
// concurrent backend, and every decorator that must pass batches
// through with its own semantics intact — InstrumentedEnv (distinct
// batched counters), RetryEnv (transient faults absorbed inside a
// wave), FaultInjectionEnv (a power cut lands *between* coalesced
// completions, never inside one).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/async_env.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"
#include "storage/retry_env.h"

namespace medvault::storage {
namespace {

std::string ReadAll(Env* env, const std::string& fname) {
  std::string data;
  Status s = ReadFileToString(env, fname, &data);
  EXPECT_TRUE(s.ok()) << fname << ": " << s.ToString();
  return data;
}

// ---------------------------------------------------------------------------
// BatchCompletion
// ---------------------------------------------------------------------------

TEST(BatchCompletionTest, AggregateReturnsFirstErrorInSlotOrder) {
  BatchCompletion done(3);
  done.Fulfill(2, Status::Corruption("slot two"));
  done.Fulfill(0, Status::OK());
  done.Fulfill(1, Status::IoError("slot one"));
  done.Wait();
  // Slot order, not fulfillment order: slot 1's error wins.
  EXPECT_TRUE(done.Aggregate().IsIoError()) << done.Aggregate().ToString();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(done.status(2).IsCorruption());
}

TEST(BatchCompletionTest, WaitBlocksUntilEverySlotFulfilled) {
  BatchCompletion done(2);
  std::atomic<bool> finished{false};
  std::thread waiter([&] {
    done.Wait();
    finished.store(true);
  });
  done.Fulfill(0, Status::OK());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(finished.load());
  done.Fulfill(1, Status::OK());
  waiter.join();
  EXPECT_TRUE(finished.load());
  EXPECT_TRUE(done.Aggregate().ok());
}

// ---------------------------------------------------------------------------
// Default (inline, sequential) backend — every Env gets this for free.
// ---------------------------------------------------------------------------

TEST(DefaultBatchTest, SubmitWritesAppendsInSlotOrder) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("f", &file).ok());

  std::vector<WriteRequest> requests(3);
  requests[0] = {file.get(), "one-"};
  requests[1] = {file.get(), "two-"};
  requests[2] = {file.get(), "three"};
  BatchCompletion done(requests.size());
  env.SubmitWrites(requests.data(), requests.size(), &done);
  done.Wait();
  ASSERT_TRUE(done.Aggregate().ok());
  ASSERT_TRUE(file->Close().ok());

  EXPECT_EQ(ReadAll(&env, "f"), "one-two-three");
}

TEST(DefaultBatchTest, SyncFilesBatchSkipsNullEntriesAndSyncs) {
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("alpha")).ok());
  ASSERT_TRUE(b->Append(Slice("beta")).ok());

  std::vector<WritableFile*> wave = {a.get(), nullptr, b.get(), nullptr};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());

  // Both files survive a power cut that drops unsynced bytes — the
  // batch really was a durability barrier for each non-null entry.
  env.CrashAndRecover(CrashMode::kDropUnsynced);
  EXPECT_EQ(ReadAll(&env, "a"), "alpha");
  EXPECT_EQ(ReadAll(&env, "b"), "beta");
}

// ---------------------------------------------------------------------------
// AsyncEnv
// ---------------------------------------------------------------------------

TEST(AsyncEnvTest, ForwardsOrdinaryOpsToBase) {
  MemEnv base;
  AsyncEnv env(&base);
  EXPECT_GT(env.thread_count(), 0u);
  ASSERT_TRUE(env.CreateDirIfMissing("d").ok());
  ASSERT_TRUE(WriteStringToFile(&env, Slice("payload"), "d/f", true).ok());
  EXPECT_TRUE(env.FileExists("d/f"));
  EXPECT_TRUE(base.FileExists("d/f"));  // same namespace: it decorates
  uint64_t size = 0;
  ASSERT_TRUE(env.GetFileSize("d/f", &size).ok());
  EXPECT_EQ(size, 7u);
  EXPECT_EQ(ReadAll(&env, "d/f"), "payload");
  ASSERT_TRUE(env.RenameFile("d/f", "d/g").ok());
  EXPECT_FALSE(env.FileExists("d/f"));
  ASSERT_TRUE(env.RemoveFile("d/g").ok());
}

TEST(AsyncEnvTest, PerFileWriteOrderPreservedAcrossConcurrentGroups) {
  MemEnv base;
  AsyncEnv env(&base);
  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());

  // Interleave two files' requests in one batch: each file's slots must
  // land in slot order even though the two groups may run concurrently.
  std::vector<WriteRequest> requests(6);
  requests[0] = {a.get(), "a0."};
  requests[1] = {b.get(), "b0."};
  requests[2] = {a.get(), "a1."};
  requests[3] = {b.get(), "b1."};
  requests[4] = {a.get(), "a2"};
  requests[5] = {b.get(), "b2"};
  BatchCompletion done(requests.size());
  env.SubmitWrites(requests.data(), requests.size(), &done);
  done.Wait();
  ASSERT_TRUE(done.Aggregate().ok());
  ASSERT_TRUE(a->Close().ok());
  ASSERT_TRUE(b->Close().ok());

  EXPECT_EQ(ReadAll(&env, "a"), "a0.a1.a2");
  EXPECT_EQ(ReadAll(&env, "b"), "b0.b1.b2");
}

// The point of the whole exercise: one wave of N syncs must overlap, not
// queue. Each probe file's Sync blocks until `kWave` syncs have entered;
// a sequential backend would run them one at a time and every entrant
// would time out waiting for the rest. Bounded waits make a regression a
// clean failure, not a hang.
class RendezvousSync {
 public:
  explicit RendezvousSync(size_t wave) : wave_(wave) {}

  Status Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++entered_ >= wave_) {
      cv_.notify_all();
      return Status::OK();
    }
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return entered_ >= wave_; })) {
      return Status::IoError("sync wave never became concurrent");
    }
    return Status::OK();
  }

 private:
  const size_t wave_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t entered_ = 0;
};

class ProbeFile : public WritableFile {
 public:
  explicit ProbeFile(RendezvousSync* rendezvous) : rendezvous_(rendezvous) {}
  Status Append(const Slice&) override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return rendezvous_->Enter(); }
  Status Close() override { return Status::OK(); }

 private:
  RendezvousSync* rendezvous_;
};

TEST(AsyncEnvTest, SyncWaveRunsConcurrently) {
  constexpr size_t kWave = 4;
  MemEnv base;
  AsyncEnv::Options options;
  options.threads = kWave;
  AsyncEnv env(&base, options);

  RendezvousSync rendezvous(kWave);
  std::vector<std::unique_ptr<ProbeFile>> probes;
  std::vector<WritableFile*> wave;
  for (size_t i = 0; i < kWave; i++) {
    probes.push_back(std::make_unique<ProbeFile>(&rendezvous));
    wave.push_back(probes.back().get());
  }
  Status s = SyncFilesBatch(&env, wave);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(AsyncEnvTest, OverlappedSyncLatencyBeatsSequential) {
  // Wall-clock cross-check of the rendezvous test, on the real MemEnv
  // path: four 30ms simulated-media syncs in one wave must finish well
  // under the 120ms a sequential backend needs. The bound (3x one
  // sync) is loose enough for a noisy CI box.
  constexpr uint64_t kDelayMicros = 30000;
  MemEnv base;
  base.SetSyncDelayMicros(kDelayMicros);
  AsyncEnv::Options options;
  options.threads = 4;
  AsyncEnv env(&base, options);

  std::vector<std::unique_ptr<WritableFile>> files(4);
  std::vector<WritableFile*> wave;
  for (size_t i = 0; i < files.size(); i++) {
    ASSERT_TRUE(env.NewWritableFile("f" + std::to_string(i), &files[i]).ok());
    ASSERT_TRUE(files[i]->Append(Slice("x")).ok());
    wave.push_back(files[i].get());
  }

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), static_cast<int64_t>(3 * kDelayMicros))
      << "sync wave did not overlap";
}

TEST(AsyncEnvTest, BatchErrorsSurfaceInTheRightSlot) {
  MemEnv base;
  AsyncEnv env(&base);
  std::unique_ptr<WritableFile> good;
  ASSERT_TRUE(env.NewWritableFile("good", &good).ok());
  ASSERT_TRUE(good->Append(Slice("fine")).ok());

  RendezvousSync rendezvous(1);
  ProbeFile ok_probe(&rendezvous);
  class FailingFile : public WritableFile {
   public:
    Status Append(const Slice&) override { return Status::OK(); }
    Status Flush() override { return Status::OK(); }
    Status Sync() override { return Status::IoError("dead platter"); }
    Status Close() override { return Status::OK(); }
  } failing;

  WritableFile* wave[3] = {good.get(), &failing, &ok_probe};
  BatchCompletion done(3);
  env.SubmitSyncs(wave, 3, &done);
  done.Wait();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(done.status(2).ok());
  EXPECT_TRUE(done.Aggregate().IsIoError());
}

// ---------------------------------------------------------------------------
// Decorator pass-through
// ---------------------------------------------------------------------------

TEST(InstrumentedBatchTest, BatchedSyncsCountedDistinctlyNotDoubly) {
  MemEnv base;
  IoStats stats;
  InstrumentedEnv env(&base, &stats);
  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("a")).ok());
  ASSERT_TRUE(b->Append(Slice("b")).ok());

  std::vector<WritableFile*> wave = {a.get(), b.get()};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());

  IoStatsSnapshot snap = stats.TakeSnapshot();
  // Each barrier is one sync (the file wrappers count per-op as usual)
  // AND one batched sync (the batch API tallies the submission) — the
  // two series stay separable without double-counting either.
  EXPECT_EQ(snap.syncs, 2u);
  EXPECT_EQ(snap.batched_syncs, 2u);

  std::vector<WriteRequest> requests(2);
  requests[0] = {a.get(), "more"};
  requests[1] = {b.get(), "more"};
  BatchCompletion done(2);
  env.SubmitWrites(requests.data(), 2, &done);
  done.Wait();
  ASSERT_TRUE(done.Aggregate().ok());
  snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.batched_writes, 2u);
  EXPECT_EQ(snap.writes, 4u);  // 2 setup appends + 2 batched appends
}

TEST(RetryBatchTest, TransientSyncFaultInsideWaveIsAbsorbed) {
  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  obs::MetricsRegistry metrics;
  RetryOptions retry_options;
  retry_options.sleeper = [](uint64_t) {};  // instant retries
  RetryEnv env(&fault, retry_options, &metrics);

  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("a")).ok());
  ASSERT_TRUE(b->Append(Slice("b")).ok());

  // One transient sync fault somewhere in the wave: the retrying file
  // wrapper absorbs it, so the batch as a whole still succeeds.
  fault.FailNextSyncs(1);
  std::vector<WritableFile*> wave = {a.get(), b.get()};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());
  EXPECT_EQ(metrics.GetCounter("env.retry.syncs")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("env.retry.exhausted")->Value(), 0u);
}

TEST(FaultBatchTest, PowerCutLandsBetweenCoalescedCompletions) {
  // The batch API on FaultInjectionEnv must keep every coalesced
  // completion an individually numbered crash boundary: a planned
  // crash mid-batch persists the slots before the boundary and drops
  // the slots after it — never a torn half-batch.
  MemEnv mem;
  mem.SetCrashTrackingEnabled(true);
  FaultInjectionEnv fault(&mem);

  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(fault.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(fault.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("alpha")).ok());  // boundary 0
  ASSERT_TRUE(b->Append(Slice("beta")).ok());   // boundary 1

  // Batched sync of both: boundaries 2 (a) and 3 (b). Cut power at 3 —
  // a's barrier completed, b's never did.
  fault.PlanCrash(3);
  std::vector<WritableFile*> wave = {a.get(), b.get()};
  BatchCompletion done(2);
  fault.SubmitSyncs(wave.data(), 2, &done);
  done.Wait();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(fault.crashed());

  mem.CrashAndRecover(CrashMode::kDropUnsynced);
  EXPECT_EQ(ReadAll(&mem, "a"), "alpha");
  std::string b_data;
  Status read_b = ReadFileToString(&mem, "b", &b_data);
  EXPECT_TRUE(!read_b.ok() || b_data.empty())
      << "unsynced slot survived the cut: \"" << b_data << "\"";
}

}  // namespace
}  // namespace medvault::storage
