// E5 — audit trail costs (paper §3: "verifiable audit trails"): append
// latency, full-log verification vs log size, the O(log n) proof sizes
// that make spot-checks cheap for an external auditor, and the heap each
// event of history keeps resident (E22).

#include <benchmark/benchmark.h>
#include <malloc.h>
#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/audit.h"
#include "crypto/xmss.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::bench {
namespace {

using core::AuditAction;
using core::AuditLog;

void BM_AuditAppend(benchmark::State& state) {
  storage::MemEnv env;
  AuditLog log(&env, "audit.log");
  (void)log.Open();
  Timestamp t = 0;
  for (auto _ : state) {
    auto seq = log.Append("dr-a", AuditAction::kRead, "r-1", "ok", t++);
    if (!seq.ok()) state.SkipWithError(seq.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditAppend);

void BM_AuditVerifyAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  storage::MemEnv env;
  crypto::XmssSigner signer("bench-secret", "bench-public", 4);
  AuditLog log(&env, "audit.log");
  (void)log.Open();
  for (int i = 0; i < n; i++) {
    (void)log.Append("dr-a", AuditAction::kRead, "r-1", "ok", i);
  }
  (void)log.Checkpoint(&signer, n);

  for (auto _ : state) {
    Status s = log.VerifyAll(signer.public_key(), "bench-public", 4);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["events"] = n;
}
BENCHMARK(BM_AuditVerifyAll)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_InclusionProofGenerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  storage::MemEnv env;
  AuditLog log(&env, "audit.log");
  (void)log.Open();
  for (int i = 0; i < n; i++) {
    (void)log.Append("dr-a", AuditAction::kRead, "r-1", "ok", i);
  }
  uint64_t seq = 0;
  for (auto _ : state) {
    auto proof = log.ProveEvent(seq % n);
    if (!proof.ok()) state.SkipWithError(proof.status().ToString().c_str());
    benchmark::DoNotOptimize(proof);
    seq += 17;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InclusionProofGenerate)->Arg(1024)->Arg(16384);

void BM_InclusionProofVerify(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  storage::MemEnv env;
  AuditLog log(&env, "audit.log");
  (void)log.Open();
  for (int i = 0; i < n; i++) {
    (void)log.Append("dr-a", AuditAction::kRead, "r-1", "ok", i);
  }
  auto proof = log.ProveEvent(n / 2);
  std::string root = log.Root();
  for (auto _ : state) {
    Status s = AuditLog::VerifyEventProof(*proof, root);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.counters["proof_hashes"] = static_cast<double>(proof->path.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InclusionProofVerify)->Arg(1024)->Arg(16384);

void BM_ConsistencyProof(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  storage::MemEnv env;
  AuditLog log(&env, "audit.log");
  (void)log.Open();
  for (int i = 0; i < n; i++) {
    (void)log.Append("dr-a", AuditAction::kRead, "r-1", "ok", i);
  }
  // Build the trusted head the auditor would have retained at n/2.
  core::SignedCheckpoint trusted;
  trusted.tree_size = n / 2;
  {
    storage::MemEnv env2;
    AuditLog half(&env2, "audit.log");
    (void)half.Open();
    for (int i = 0; i < n / 2; i++) {
      (void)half.Append("dr-a", AuditAction::kRead, "r-1", "ok", i);
    }
    trusted.root = half.Root();
  }
  for (auto _ : state) {
    Status s = log.VerifyAgainstTrusted(trusted);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistencyProof)->Arg(1024)->Arg(16384);

void PrintProofSizes() {
  printf("\nE5 proof-size growth (hashes per inclusion proof — O(log n)):\n");
  printf("%10s %14s\n", "events", "proof hashes");
  for (int n : {16, 256, 4096, 65536}) {
    storage::MemEnv env;
    AuditLog log(&env, "audit.log");
    (void)log.Open();
    for (int i = 0; i < n; i++) {
      (void)log.Append("a", AuditAction::kRead, "r", "", i);
    }
    auto proof = log.ProveEvent(n / 2);
    printf("%10d %14zu\n", n, proof->path.size());
  }
}

/// Bytes the allocator has handed out and not taken back, mmapped
/// blocks included.
size_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// E22: heap per event of audit history, after appends and after a
/// reopen (replay), plus open time per event. The mix is two reads of
/// an existing record per create, as in a clinic. The log lives on
/// PosixEnv in a temp dir so file bytes never count as heap.
void PrintHeapPerEvent() {
  constexpr uint64_t kEvents = 100000;
  char dir_template[] = "/tmp/medvault-bench-audit-XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    printf("\nE22 skipped: no temp dir\n");
    return;
  }
  storage::Env* env = storage::PosixEnv::Default();
  const std::string path = std::string(dir) + "/audit.log";

  const size_t before_append = HeapInUse();
  auto log = std::make_unique<AuditLog>(env, path);
  (void)log->Open();
  Random rng(22);
  for (uint64_t i = 0; i < kEvents; ++i) {
    const uint64_t records = i / 3 + 1;
    const bool create = i % 3 == 0;
    const std::string record =
        "r-" + std::to_string(create ? i / 3 : rng.Uniform(records));
    (void)log->Append("dr-" + std::to_string(i % 16),
                      create ? AuditAction::kCreate : AuditAction::kRead,
                      record, create ? "policy=hipaa-6y" : "version=1",
                      static_cast<Timestamp>(i));
  }
  const size_t after_append = HeapInUse();
  log.reset();

  const size_t before_open = HeapInUse();
  const auto t0 = std::chrono::steady_clock::now();
  log = std::make_unique<AuditLog>(env, path);
  Status opened = log->Open();
  const auto t1 = std::chrono::steady_clock::now();
  const size_t after_open = HeapInUse();
  const double open_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  log.reset();
  (void)env->RemoveFile(path);
  rmdir(dir);

  printf("\nE22 audit history heap (%llu events, 2:1 read:create, "
         "PosixEnv):\n",
         static_cast<unsigned long long>(kEvents));
  printf("%-28s %10.1f B/event\n", "heap after appends",
         static_cast<double>(after_append - before_append) / kEvents);
  printf("%-28s %10.1f B/event\n", "heap after reopen",
         static_cast<double>(after_open - before_open) / kEvents);
  printf("%-28s %10.3f us/event%s\n", "open (replay)", open_us / kEvents,
         opened.ok() ? "" : "  (open FAILED)");
}

}  // namespace
}  // namespace medvault::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  medvault::bench::PrintProofSizes();
  medvault::bench::PrintHeapPerEvent();
  return 0;
}
