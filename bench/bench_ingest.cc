// E1 — ingest throughput across the five storage models vs record size
// ("the trade-off between security and performance", paper §4).
// Expected shape: relational fastest; encrypted-db pays cipher cost;
// medvault pays AEAD + audit + provenance + index blinding — a
// small-constant factor, not an order of magnitude.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_util.h"
#include "core/sharded_vault.h"

namespace medvault::bench {
namespace {

void RunIngest(benchmark::State& state, const std::string& model) {
  const size_t note_bytes = static_cast<size_t>(state.range(0));
  StoreInstance si = MakeStore(model);
  sim::EhrGenerator::Options options;
  options.note_bytes = note_bytes;
  sim::EhrGenerator gen(7, options);

  int64_t records = 0;
  for (auto _ : state) {
    sim::EhrRecord r = gen.Next();
    auto id = si.store->Put(r.text, r.keywords);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    records++;
  }
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(records * static_cast<int64_t>(note_bytes));
}

void BM_Ingest_Relational(benchmark::State& state) {
  RunIngest(state, "relational");
}
void BM_Ingest_EncryptedDb(benchmark::State& state) {
  RunIngest(state, "encrypted-db");
}
void BM_Ingest_ObjectStore(benchmark::State& state) {
  RunIngest(state, "object-store");
}
void BM_Ingest_Worm(benchmark::State& state) { RunIngest(state, "worm"); }
void BM_Ingest_MedVault(benchmark::State& state) {
  RunIngest(state, "medvault");
}

// Batched ingest: Vault::CreateRecordsBatch coalesces the state-log
// flush, index posting appends, and audit entries for the whole batch.
// Compare records/s against BM_Ingest_MedVault (one-at-a-time) at the
// same note size.
void BM_Ingest_MedVaultBatch(benchmark::State& state) {
  const size_t note_bytes = static_cast<size_t>(state.range(0));
  const size_t batch_size = static_cast<size_t>(state.range(1));
  StoreInstance si = MakeStore("medvault");
  auto* vault =
      static_cast<baselines::VaultStore*>(si.store.get())->vault();
  sim::EhrGenerator::Options options;
  options.note_bytes = note_bytes;
  sim::EhrGenerator gen(7, options);

  int64_t records = 0;
  for (auto _ : state) {
    std::vector<core::Vault::NewRecord> batch(batch_size);
    for (core::Vault::NewRecord& r : batch) {
      sim::EhrRecord e = gen.Next();
      r.patient_id = baselines::VaultStore::kPatient;
      r.content_type = "text/plain";
      r.plaintext = std::move(e.text);
      r.keywords = std::move(e.keywords);
      r.retention_policy = "short-1y";
    }
    auto ids = vault->CreateRecordsBatch(baselines::VaultStore::kClinician,
                                         batch);
    if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    records += static_cast<int64_t>(batch_size);
  }
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(records * static_cast<int64_t>(note_bytes));
}

BENCHMARK(BM_Ingest_Relational)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ingest_EncryptedDb)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ingest_ObjectStore)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ingest_Worm)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ingest_MedVault)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ingest_MedVaultBatch)
    ->Args({1024, 16})
    ->Args({1024, 64})
    ->Args({1024, 256});

// E12 — shard scaling: the same batched ingest fanned out across 1/2/4/8
// Vault shards by the ShardedVault worker pool. Each shard has its own
// lock and log domain, so on a multi-core host records/s should rise
// with the shard count until cores run out (on a single-core box the
// curve is flat and the delta is pure fan-out overhead — see
// EXPERIMENTS.md E12 for the interpretation rules). Wall-clock
// (UseRealTime) is the honest metric: the work happens on pool threads.
void BM_Ingest_ShardedBatch(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  constexpr size_t kBatchSize = 64;
  constexpr int kPatients = 64;

  storage::MemEnv env;
  storage::InstrumentedEnv ienv(&env, obs::ProcessIoStats());
  ManualClock clock(1000000);
  core::ShardedVaultOptions options;
  options.env = &ienv;
  options.dir = "sharded";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "bench-ingest-entropy";
  options.num_shards = shards;
  options.signer_height = 8;
  auto opened = core::ShardedVault::Open(options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  core::ShardedVault* vault = opened->get();
  (void)vault->RegisterPrincipal("boot", {"admin", core::Role::kAdmin, "A"});
  (void)vault->RegisterPrincipal("admin", {"dr", core::Role::kPhysician, "D"});
  std::vector<std::string> patients;
  for (int p = 0; p < kPatients; ++p) {
    std::string patient = "pat-" + std::to_string(p);
    (void)vault->RegisterPrincipal(
        "admin", {patient, core::Role::kPatient, patient});
    (void)vault->AssignCare("admin", "dr", patient);
    patients.push_back(std::move(patient));
  }

  sim::EhrGenerator::Options gen_options;
  gen_options.note_bytes = 1024;
  sim::EhrGenerator gen(7, gen_options);
  int64_t records = 0;
  size_t next_patient = 0;
  for (auto _ : state) {
    std::vector<core::Vault::NewRecord> batch(kBatchSize);
    for (core::Vault::NewRecord& r : batch) {
      sim::EhrRecord e = gen.Next();
      r.patient_id = patients[next_patient++ % patients.size()];
      r.content_type = "text/plain";
      r.plaintext = std::move(e.text);
      r.keywords = std::move(e.keywords);
      r.retention_policy = "short-1y";
    }
    auto ids = vault->CreateRecordsBatch("dr", batch);
    if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    records += static_cast<int64_t>(kBatchSize);
  }
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(records * 1024);
}

BENCHMARK(BM_Ingest_ShardedBatch)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// E14 — durability cost and group commit: what an fsync-per-op policy
// costs, and how the batched/windowed commit path collapses it.
// ---------------------------------------------------------------------------
//
// All durable benchmarks run on MemEnv (simulated ~100us media sync) →
// InstrumentedEnv (fsync tallies); a wave's syncs run one after another,
// as they do on the daemon's PosixEnv.  Every variant reports
// `fsync_per_op` — syncs per acknowledged record — which is the number
// group commit is supposed to drive toward flat: 7 fsyncs/op for the
// per-op policy, and a curve falling toward zero as the batch or window
// grows, at IDENTICAL durability (nothing is acknowledged before a
// covering sync wave completes).

/// Simulated media sync latency. ~100us sits between an enterprise SSD
/// flush and an NVMe one; what matters is that it is large enough for
/// coalescing to be visible in wall-clock.
constexpr uint64_t kSimSyncMicros = 100;

/// MemEnv → InstrumentedEnv + an open 1-shard ShardedVault (the stack
/// that owns group commit), for the durable-ingest variants.
class DurableVault {
 public:
  explicit DurableVault(uint64_t commit_window_micros)
      : ienv_(&env_, obs::ProcessIoStats()), clock_(1000000) {
    env_.SetSyncDelayMicros(kSimSyncMicros);
    core::ShardedVaultOptions options;
    options.env = &ienv_;
    options.dir = "durable";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "bench-durable-entropy";
    options.num_shards = 1;
    options.signer_height = 8;
    options.commit_window_micros = commit_window_micros;
    auto opened = core::ShardedVault::Open(options);
    if (!opened.ok()) {
      fprintf(stderr, "durable vault open failed: %s\n",
              opened.status().ToString().c_str());
      abort();
    }
    vault_ = std::move(*opened);
    (void)vault_->RegisterPrincipal("boot",
                                    {"admin", core::Role::kAdmin, "A"});
    (void)vault_->RegisterPrincipal(
        "admin", {"dr", core::Role::kPhysician, "D"});
    (void)vault_->RegisterPrincipal("admin",
                                    {"p", core::Role::kPatient, "P"});
    (void)vault_->AssignCare("admin", "dr", "p");
    (void)vault_->SyncAll();
  }

  core::ShardedVault* vault() { return vault_.get(); }

 private:
  storage::MemEnv env_;
  storage::InstrumentedEnv ienv_;
  ManualClock clock_;
  std::unique_ptr<core::ShardedVault> vault_;
};

core::Vault::NewRecord MakeDurableRecord(sim::EhrGenerator* gen) {
  sim::EhrRecord e = gen->Next();
  core::Vault::NewRecord r;
  r.patient_id = "p";
  r.content_type = "text/plain";
  r.plaintext = std::move(e.text);
  r.keywords = std::move(e.keywords);
  r.retention_policy = "short-1y";
  return r;
}

/// Records/s and syncs/record over the timed section.
void ReportFsyncPerOp(benchmark::State& state, int64_t records,
                      const storage::IoStatsSnapshot& before) {
  const storage::IoStatsSnapshot after =
      obs::ProcessIoStats()->TakeSnapshot();
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(records * 1024);
  if (records > 0) {
    state.counters["fsync_per_op"] = benchmark::Counter(
        static_cast<double>(after.syncs - before.syncs) /
        static_cast<double>(records));
  }
}

// The equal-durability baseline: one record, one SyncAll, every time —
// the fsync-per-op policy E1's caption warns about.
void BM_Ingest_DurablePerOp(benchmark::State& state) {
  DurableVault fixture(/*commit_window_micros=*/0);
  sim::EhrGenerator::Options gen_options;
  gen_options.note_bytes = 1024;
  sim::EhrGenerator gen(7, gen_options);

  const storage::IoStatsSnapshot before =
      obs::ProcessIoStats()->TakeSnapshot();
  int64_t records = 0;
  for (auto _ : state) {
    auto id = fixture.vault()->CreateRecord(
        "dr", "p", "text/plain", MakeDurableRecord(&gen).plaintext,
        {"bench"}, "short-1y");
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    if (auto s = fixture.vault()->SyncAll(); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
    }
    records++;
  }
  ReportFsyncPerOp(state, records, before);
}

// Batched durable ingest: the whole batch is acknowledged by ONE group-
// committed sync wave. fsync_per_op must fall roughly as 1/batch.
void BM_Ingest_DurableBatch(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  DurableVault fixture(/*commit_window_micros=*/0);
  sim::EhrGenerator::Options gen_options;
  gen_options.note_bytes = 1024;
  sim::EhrGenerator gen(7, gen_options);

  const storage::IoStatsSnapshot before =
      obs::ProcessIoStats()->TakeSnapshot();
  int64_t records = 0;
  for (auto _ : state) {
    std::vector<core::Vault::NewRecord> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(MakeDurableRecord(&gen));
    }
    auto ids = fixture.vault()->CreateRecordsBatchDurable("dr", batch);
    if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    records += static_cast<int64_t>(batch_size);
  }
  ReportFsyncPerOp(state, records, before);
}

// Concurrent writers sharing a commit window: kWriters threads each
// durably commit a small batch per iteration; the window axis
// (`--commit_window_us`) trades acknowledgement latency for coalescing.
// Window 0 still coalesces opportunistically behind in-flight waves.
void BM_Ingest_DurableConcurrent(benchmark::State& state) {
  const uint64_t window_us = static_cast<uint64_t>(state.range(0));
  constexpr int kWriters = 4;
  constexpr size_t kBatch = 8;
  DurableVault fixture(window_us);

  // Pre-built per-writer batches (copied each iteration): generation
  // cost stays out of the contended section, and the generator is not
  // shared across threads.
  std::vector<std::vector<core::Vault::NewRecord>> templates(kWriters);
  sim::EhrGenerator::Options gen_options;
  gen_options.note_bytes = 1024;
  sim::EhrGenerator gen(7, gen_options);
  for (auto& batch : templates) {
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back(MakeDurableRecord(&gen));
    }
  }

  const storage::IoStatsSnapshot before =
      obs::ProcessIoStats()->TakeSnapshot();
  int64_t records = 0;
  for (auto _ : state) {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&fixture, &templates, t] {
        auto ids =
            fixture.vault()->CreateRecordsBatchDurable("dr", templates[t]);
        if (!ids.ok()) {
          fprintf(stderr, "durable batch failed: %s\n",
                  ids.status().ToString().c_str());
        }
      });
    }
    for (auto& w : writers) w.join();
    records += static_cast<int64_t>(kWriters * kBatch);
  }
  ReportFsyncPerOp(state, records, before);
}

// Cross-shard durable batch: CreateRecordsBatchDurable on a 2-shard
// vault — one group-committed wave syncs BOTH shards, fanned out on the
// shard pool. Compare against BM_Ingest_ShardedDurablePerOp
// (same stack, SyncAll per record) for the headline at-equal-durability
// speedup.
void RunShardedDurable(benchmark::State& state, size_t batch_size) {
  constexpr int kPatients = 16;
  storage::MemEnv env;
  env.SetSyncDelayMicros(kSimSyncMicros);
  storage::InstrumentedEnv ienv(&env, obs::ProcessIoStats());
  ManualClock clock(1000000);
  core::ShardedVaultOptions options;
  options.env = &ienv;
  options.dir = "sharded-durable";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "bench-sharded-durable-entropy";
  options.num_shards = 2;
  options.signer_height = 8;
  auto opened = core::ShardedVault::Open(options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  core::ShardedVault* vault = opened->get();
  (void)vault->RegisterPrincipal("boot", {"admin", core::Role::kAdmin, "A"});
  (void)vault->RegisterPrincipal("admin",
                                 {"dr", core::Role::kPhysician, "D"});
  std::vector<std::string> patients;
  for (int p = 0; p < kPatients; ++p) {
    std::string patient = "pat-" + std::to_string(p);
    (void)vault->RegisterPrincipal(
        "admin", {patient, core::Role::kPatient, patient});
    (void)vault->AssignCare("admin", "dr", patient);
    patients.push_back(std::move(patient));
  }
  (void)vault->SyncAll();

  sim::EhrGenerator::Options gen_options;
  gen_options.note_bytes = 1024;
  sim::EhrGenerator gen(7, gen_options);
  const storage::IoStatsSnapshot before =
      obs::ProcessIoStats()->TakeSnapshot();
  int64_t records = 0;
  size_t next_patient = 0;
  for (auto _ : state) {
    std::vector<core::Vault::NewRecord> batch(batch_size);
    for (core::Vault::NewRecord& r : batch) {
      sim::EhrRecord e = gen.Next();
      r.patient_id = patients[next_patient++ % patients.size()];
      r.content_type = "text/plain";
      r.plaintext = std::move(e.text);
      r.keywords = std::move(e.keywords);
      r.retention_policy = "short-1y";
    }
    if (batch_size == 1) {
      // Per-op policy on the sharded stack: create, then SyncAll.
      auto ids = vault->CreateRecordsBatch("dr", batch);
      if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
      if (auto s = vault->SyncAll(); !s.ok()) {
        state.SkipWithError(s.ToString().c_str());
      }
    } else {
      auto ids = vault->CreateRecordsBatchDurable("dr", batch);
      if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    }
    records += static_cast<int64_t>(batch_size);
  }
  ReportFsyncPerOp(state, records, before);
}

void BM_Ingest_ShardedDurablePerOp(benchmark::State& state) {
  RunShardedDurable(state, 1);
}
void BM_Ingest_ShardedDurableBatch(benchmark::State& state) {
  RunShardedDurable(state, static_cast<size_t>(state.range(0)));
}

BENCHMARK(BM_Ingest_DurablePerOp)->UseRealTime();
BENCHMARK(BM_Ingest_DurableBatch)
    ->ArgName("batch")
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();
BENCHMARK(BM_Ingest_DurableConcurrent)
    ->ArgName("window_us")
    ->Arg(0)
    ->Arg(200)
    ->Arg(1000)
    ->UseRealTime();
BENCHMARK(BM_Ingest_ShardedDurablePerOp)->UseRealTime();
BENCHMARK(BM_Ingest_ShardedDurableBatch)
    ->ArgName("batch")
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

}  // namespace
}  // namespace medvault::bench

// Axis selectors rewritten into benchmark filters (all other flags pass
// through untouched):
//   --shards=N            the sharded-ingest curve at that shard count
//   --commit_window_us=N  the concurrent durable curve at that window
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string filter;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      filter = "--benchmark_filter=ShardedBatch/shards:" + arg.substr(9) +
               "/real_time$";
    } else if (arg.rfind("--commit_window_us=", 0) == 0) {
      filter = "--benchmark_filter=DurableConcurrent/window_us:" +
               arg.substr(19) + "/real_time$";
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!filter.empty()) args.push_back(filter.data());
  return medvault::bench::RunBenchmarkMain(
      "ingest", static_cast<int>(args.size()), args.data());
}
