// E17 — audit transparency at scale: inclusion / consistency proof
// generation against the memoized Merkle tree at 10^4..10^6+ entries
// (the paper's 30-year audit horizon), the naive recompute-everything
// ablation that motivates the memo, stateless proof verification, the
// disclosure-accounting index vs the full-log scan it replaces (HIPAA
// §164.528 per-patient reports), and the witnessed-checkpoint
// publication path (XMSS checkpoint + witness consistency check +
// countersignature).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/transparency.h"
#include "crypto/merkle.h"
#include "crypto/xmss.h"
#include "storage/mem_env.h"

namespace medvault::bench {
namespace {

// Proof benches share one tree per (size, memoize) so the O(n) build
// cost is paid once per configuration, not once per benchmark run.
const crypto::MerkleTree& SharedTree(uint64_t size, bool memoize) {
  static std::map<std::pair<uint64_t, bool>, crypto::MerkleTree>* trees =
      new std::map<std::pair<uint64_t, bool>, crypto::MerkleTree>();
  auto key = std::make_pair(size, memoize);
  auto it = trees->find(key);
  if (it == trees->end()) {
    crypto::MerkleTree tree(memoize);
    for (uint64_t i = 0; i < size; i++) {
      tree.Append("audit-event-" + std::to_string(i));
    }
    it = trees->emplace(key, std::move(tree)).first;
  }
  return it->second;
}

void RunInclusionProof(benchmark::State& state, bool memoize) {
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  const crypto::MerkleTree& tree = SharedTree(size, memoize);
  Random rng(17);
  int64_t proofs = 0;
  for (auto _ : state) {
    auto proof = tree.InclusionProof(rng.Uniform(size), size);
    if (!proof.ok()) state.SkipWithError(proof.status().ToString().c_str());
    benchmark::DoNotOptimize(proof);
    proofs++;
  }
  state.SetItemsProcessed(proofs);
}

// O(log n) with the power-of-two subtree memo: doubling the tree adds
// one path level, so 2^14 -> 2^20 should move latency by ~1.4x, not 64x.
void BM_InclusionProof(benchmark::State& state) {
  RunInclusionProof(state, /*memoize=*/true);
}
BENCHMARK(BM_InclusionProof)
    ->ArgName("entries")
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

// The ablation: memoize=false recomputes whole subtrees per proof, so
// each proof is O(n) hashing. Capped at 2^17 — at 2^20 a single naive
// proof takes longer than this bench's whole memoized line.
void BM_InclusionProofNaive(benchmark::State& state) {
  RunInclusionProof(state, /*memoize=*/false);
}
BENCHMARK(BM_InclusionProofNaive)
    ->ArgName("entries")
    ->Arg(1 << 14)
    ->Arg(1 << 17);

// Consistency proofs between two published checkpoint sizes — what a
// witness checks before countersigning (old = 2/3 of new).
void BM_ConsistencyProof(benchmark::State& state) {
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  const crypto::MerkleTree& tree = SharedTree(size, /*memoize=*/true);
  const uint64_t old_size = size * 2 / 3;
  int64_t proofs = 0;
  for (auto _ : state) {
    auto proof = tree.ConsistencyProof(old_size, size);
    if (!proof.ok()) state.SkipWithError(proof.status().ToString().c_str());
    benchmark::DoNotOptimize(proof);
    proofs++;
  }
  state.SetItemsProcessed(proofs);
}
BENCHMARK(BM_ConsistencyProof)
    ->ArgName("entries")
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

// Stateless verification — the patient/auditor side of the protocol;
// must stay cheap enough for commodity client hardware.
void BM_VerifyInclusion(benchmark::State& state) {
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  const crypto::MerkleTree& tree = SharedTree(size, /*memoize=*/true);
  const std::string root = tree.Root();
  Random rng(23);
  const uint64_t index = rng.Uniform(size);
  auto leaf = tree.LeafHash(index);
  auto proof = tree.InclusionProof(index, size);
  if (!leaf.ok() || !proof.ok()) {
    state.SkipWithError("proof setup failed");
    return;
  }
  int64_t verified = 0;
  for (auto _ : state) {
    Status s = crypto::MerkleTree::VerifyInclusion(*leaf, index, size, *proof,
                                                   root);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(s);
    verified++;
  }
  state.SetItemsProcessed(verified);
}
BENCHMARK(BM_VerifyInclusion)
    ->ArgName("entries")
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Disclosure accounting: the per-patient index vs the full-log scan.
// ---------------------------------------------------------------------------

constexpr int kDisclosureEvents = 1 << 15;
constexpr int kDisclosureRecords = 256;

/// An audit log with kDisclosureEvents kRead events spread uniformly
/// over kDisclosureRecords records (so one record's report is ~n/256 of
/// the log). Built once, shared by both report benches.
core::AuditLog* DisclosureLog() {
  static storage::MemEnv* env = new storage::MemEnv();
  static core::AuditLog* log = [] {
    auto* l = new core::AuditLog(env, "audit.log");
    Status s = l->Open();
    if (!s.ok()) abort();
    Random rng(31);
    std::vector<core::PendingAuditEvent> batch;
    batch.reserve(kDisclosureEvents);
    for (int i = 0; i < kDisclosureEvents; i++) {
      core::PendingAuditEvent e;
      e.actor = "dr-" + std::to_string(rng.Uniform(16));
      e.action = core::AuditAction::kRead;
      e.record_id = "rec-" + std::to_string(rng.Uniform(kDisclosureRecords));
      e.details = "read";
      batch.push_back(std::move(e));
    }
    if (!l->AppendBatch(batch, 1000000).ok()) abort();
    return l;
  }();
  return log;
}

// Index path: seq lookup is O(that record's disclosures); each seq is
// resolved to its event, as AccountingOfDisclosures does.
void BM_DisclosureReportIndexed(benchmark::State& state) {
  core::AuditLog* log = DisclosureLog();
  Random rng(37);
  int64_t reports = 0;
  for (auto _ : state) {
    std::string record = "rec-" + std::to_string(rng.Uniform(kDisclosureRecords));
    std::vector<core::AuditEvent> report;
    for (uint64_t seq : log->SeqsForRecord(record)) {
      auto event = log->EventAt(seq);
      if (!event.ok()) state.SkipWithError(event.status().ToString().c_str());
      if (event->action == core::AuditAction::kRead) {
        report.push_back(std::move(*event));
      }
    }
    benchmark::DoNotOptimize(report);
    reports++;
  }
  state.SetItemsProcessed(reports);
}
BENCHMARK(BM_DisclosureReportIndexed);

// What the report cost before the index: read back and scan all n
// events per request.
void BM_DisclosureReportScan(benchmark::State& state) {
  core::AuditLog* log = DisclosureLog();
  Random rng(37);
  int64_t reports = 0;
  for (auto _ : state) {
    std::string record = "rec-" + std::to_string(rng.Uniform(kDisclosureRecords));
    std::vector<core::AuditEvent> report;
    Status s = log->ForEachEvent(
        0, log->size(), [&](const core::AuditEvent& event) {
          if (event.action == core::AuditAction::kRead &&
              event.record_id == record) {
            report.push_back(event);
          }
          return Status::OK();
        });
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(report);
    reports++;
  }
  state.SetItemsProcessed(reports);
}
BENCHMARK(BM_DisclosureReportScan);

// ---------------------------------------------------------------------------
// Witnessed checkpoint publication
// ---------------------------------------------------------------------------

// One full publication round per iteration: append an event, XMSS-sign
// the new head, build the consistency proof from the witness's
// last-seen size, and have the witness verify + countersign. Fixed
// iteration count — the log and witness signers are height-10 XMSS
// (1024 one-time leaves each), and a time-targeted run would exhaust
// them mid-measurement.
void BM_WitnessCosign(benchmark::State& state) {
  storage::MemEnv env;
  core::AuditLog log(&env, "audit.log");
  if (!log.Open().ok()) {
    state.SkipWithError("audit log open failed");
    return;
  }
  crypto::XmssSigner signer(std::string(32, 'S'), std::string(32, 'P'), 10);
  core::Witness::Options witness_options;
  witness_options.id = "bench-witness";
  witness_options.secret_seed = std::string(32, 'W');
  witness_options.public_seed = std::string(32, 'Q');
  witness_options.height = 10;
  core::LogIdentity identity;
  identity.public_key = signer.public_key();
  identity.public_seed = signer.public_seed();
  identity.height = signer.height();
  core::Witness witness(witness_options, identity);

  Timestamp now = 1000000;
  int64_t cosigns = 0;
  for (auto _ : state) {
    auto seq = log.Append("dr", core::AuditAction::kRead,
                          "rec-" + std::to_string(cosigns), "read", ++now);
    if (!seq.ok()) state.SkipWithError(seq.status().ToString().c_str());
    uint64_t last = witness.last_size();
    auto checkpoint = log.Checkpoint(&signer, ++now);
    if (!checkpoint.ok()) {
      state.SkipWithError(checkpoint.status().ToString().c_str());
      break;
    }
    auto proof = log.ConsistencyProofBetween(last, checkpoint->tree_size);
    if (!proof.ok()) {
      state.SkipWithError(proof.status().ToString().c_str());
      break;
    }
    auto cosig = witness.Cosign(*checkpoint, *proof);
    if (!cosig.ok()) {
      state.SkipWithError(cosig.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(cosig);
    cosigns++;
  }
  state.SetItemsProcessed(cosigns);
}
BENCHMARK(BM_WitnessCosign)->Iterations(256);

}  // namespace
}  // namespace medvault::bench

int main(int argc, char** argv) {
  return medvault::bench::RunBenchmarkMain("audit_proofs", argc, argv);
}
