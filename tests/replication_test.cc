// Verified replication matrix: Merkle-checked log shipping from a
// primary vault to warm standbys, under fault injection.
//
// The contract under test (DESIGN.md, "Replication & promotion"):
//   (a) a replica never exposes a record the primary didn't durably
//       commit — killed at EVERY I/O boundary of a replicated
//       workload, in both crash modes, the recovered primary always
//       serves at least what the replica's read view serves;
//   (b) a tampered batch (bit flips anywhere: header, chunk payload,
//       torn encoding) is refused with tamper evidence naming the
//       chunk, and the replica quarantines — sticky, like a bad shard;
//   (c) promotion after a primary kill is a crash-recovery open behind
//       a scrub gate: at most one kRecovery audit event, identical
//       content roots, and a structurally damaged replica quarantines
//       instead of promoting;
//   (d) a lagging / partitioned replica catches up to byte equality
//       from its own cursor — no handshake, no replay log.
//
// Batches are cut at group-commit window boundaries (under the vault's
// exclusive lock after a full sync wave), so every shipped byte is
// durable on the primary by construction; the matrix checks that the
// implementation actually upholds this when the power goes out.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/replication.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/fault_env.h"
#include "storage/mem_env.h"

namespace medvault {
namespace {

using core::ReplicaApplier;
using core::ReplicationCursor;
using core::ReplicationSource;
using core::Role;
using core::ShardedReplicaApplier;
using core::ShardedReplicationSource;
using core::ShardedVault;
using core::ShardedVaultOptions;
using core::ShippedBatch;
using core::Vault;
using core::VaultOptions;

constexpr char kEntropy[] = "repl-test-entropy";

VaultOptions PrimaryOptions(storage::Env* env, const Clock* clock,
                            const std::string& dir = "primary") {
  VaultOptions options;
  options.env = env;
  options.dir = dir;
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = kEntropy;
  options.signer_height = 4;
  return options;
}

ReplicaApplier::Options ApplierOptions(storage::Env* env,
                                       const std::string& dir = "replica") {
  ReplicaApplier::Options options;
  options.env = env;
  options.dir = dir;
  options.entropy = kEntropy;
  return options;
}

/// One pull round: cursor from the replica, cut on the primary, apply.
Status Ship(ReplicationSource* source, ReplicaApplier* applier) {
  auto cursor = applier->Cursor();
  if (!cursor.ok()) return cursor.status();
  auto batch = source->CutBatch(*cursor);
  if (!batch.ok()) return batch.status();
  return applier->Apply(*batch);
}

/// Byte equality between two vault directories, by authenticated
/// cursor: same artifact files, same sizes, same prefix hashes.
void ExpectDirsEqual(storage::Env* env_a, const std::string& dir_a,
                     storage::Env* env_b, const std::string& dir_b) {
  const std::string key = core::DeriveReplicationAuthKey(kEntropy);
  auto a = core::CursorForVaultDir(env_a, dir_a, key);
  auto b = core::CursorForVaultDir(env_b, dir_b, key);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (const auto& [rel, state] : a->files) {
    auto it = b->files.find(rel);
    ASSERT_NE(it, b->files.end())
        << rel << " (" << state.size << " bytes) missing from " << dir_b;
    EXPECT_EQ(state.size, it->second.size) << rel;
    EXPECT_EQ(state.prefix_hash, it->second.prefix_hash) << rel;
  }
  for (const auto& [rel, state] : b->files) {
    EXPECT_NE(a->files.find(rel), a->files.end())
        << rel << " (" << state.size << " bytes) only in " << dir_b;
  }
}

int RecoveryEvents(Vault* vault) {
  auto trail = vault->ReadAuditTrail("admin", "");
  if (!trail.ok()) {
    ADD_FAILURE() << "audit trail unreadable: " << trail.status().ToString();
    return -1;
  }
  int events = 0;
  for (const core::AuditEvent& event : *trail) {
    if (event.action == core::AuditAction::kRecovery) events++;
  }
  return events;
}

/// Registers the cast and ingests three records; returns their ids.
/// Bails (empty) on the first error, crash-workload style.
std::vector<std::string> SeedPrimary(Vault* vault) {
  if (!vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok())
    return {};
  if (!vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok())
    return {};
  if (!vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok())
    return {};
  if (!vault->AssignCare("admin", "dr", "p").ok()) return {};
  std::vector<std::string> ids;
  for (const char* text : {"alpha note", "beta result", "gamma scan"}) {
    auto id = vault->CreateRecord("dr", "p", "text/plain", text,
                                  {"shared"}, "hipaa-6y");
    if (!id.ok()) return {};
    ids.push_back(*id);
  }
  if (!vault->SyncAll().ok()) return {};
  return ids;
}

// ---------------------------------------------------------------------------
// Convergence and authenticated reads
// ---------------------------------------------------------------------------

TEST(ReplicationTest, ReplicaConvergesToByteEqualityAndServesReads) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Vault* primary = opened->get();
  const std::vector<std::string> ids = SeedPrimary(primary);
  ASSERT_EQ(ids.size(), 3u);

  ReplicationSource source(primary);
  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();

  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  EXPECT_EQ((*applier)->applied_batches(), 1u);
  EXPECT_EQ((*applier)->last_applied_seq(), 1u);
  ExpectDirsEqual(&env, "primary", &env, "replica");

  // The replica holds the primary's audit head as of the cut.
  EXPECT_EQ((*applier)->last_audit_root(), primary->audit()->Root());
  EXPECT_EQ((*applier)->last_audit_size(), primary->audit()->size());

  // Authenticated reads through a read view — the replica dir itself
  // stays byte-exact (views are copies; reads append audit events).
  auto view = (*applier)->OpenReadView(PrimaryOptions(&env, &clock), "view1");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto read = (*view)->ReadRecord("dr", ids[0]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->plaintext, "alpha note");
  EXPECT_TRUE((*view)->VerifyAudit().ok());
  ExpectDirsEqual(&env, "primary", &env, "replica");

  // Steady state: an empty delta still advances the stream cheaply.
  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  EXPECT_EQ((*applier)->applied_batches(), 2u);
  EXPECT_EQ((*applier)->lag_bytes(), 0u);

  // Incremental: a correction ships as appends, not a re-clone.
  ASSERT_TRUE(primary
                  ->CorrectRecord("dr", ids[0], "alpha note, corrected",
                                  "typo", {"shared"})
                  .ok());
  ASSERT_TRUE(primary->SyncAll().ok());
  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  ExpectDirsEqual(&env, "primary", &env, "replica");
  auto view2 =
      (*applier)->OpenReadView(PrimaryOptions(&env, &clock), "view2");
  ASSERT_TRUE(view2.ok());
  auto corrected = (*view2)->ReadRecord("dr", ids[0]);
  ASSERT_TRUE(corrected.ok());
  EXPECT_EQ(corrected->header.version, 2u);
  EXPECT_EQ(corrected->plaintext, "alpha note, corrected");
}

// Only vault artifacts ship: the fixed logs and files named exactly as
// SegmentStore names segments. Orphans beside them never reach a replica.
TEST(ReplicationTest, OrphansBesideArtifactsNeverShip) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  const std::vector<std::string> orphans = {
      "segments/seg-junk", "segments/seg-00000001.tmp", "segments/seg-1",
      "state.log.tmp", "notes.txt"};
  for (const std::string& rel : orphans) {
    ASSERT_TRUE(storage::WriteStringToFile(&env, Slice("orphan bytes"),
                                           "primary/" + rel, false)
                    .ok());
  }

  const std::string key = core::DeriveReplicationAuthKey(kEntropy);
  auto cursor = core::CursorForVaultDir(&env, "primary", key);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->files.count("segments/seg-00000001"), 1u);
  for (const std::string& rel : orphans) {
    EXPECT_EQ(cursor->files.count(rel), 0u) << rel;
  }

  ReplicationSource source(opened->get());
  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  ExpectDirsEqual(&env, "primary", &env, "replica");
  for (const std::string& rel : orphans) {
    EXPECT_FALSE(env.FileExists("replica/" + rel)) << rel;
  }
}

// signer.tree is derived from the vault's own keys, so it never ships:
// not in the primary's cursor, not in a batch, not on the replica. A
// promoted replica builds its signer once and writes its own file.
TEST(ReplicationTest, SignerTreeNeverShips) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ASSERT_TRUE(env.FileExists("primary/signer.tree"));

  const std::string key = core::DeriveReplicationAuthKey(kEntropy);
  auto cursor = core::CursorForVaultDir(&env, "primary", key);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->files.count(core::kSignerTreeFile), 0u);

  ReplicationSource source(opened->get());
  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  auto replica_cursor = (*applier)->Cursor();
  ASSERT_TRUE(replica_cursor.ok());
  auto batch = source.CutBatch(*replica_cursor);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const auto& chunk : batch->chunks) {
    EXPECT_NE(chunk.path, core::kSignerTreeFile);
  }
  ASSERT_TRUE((*applier)->Apply(*batch).ok());
  ExpectDirsEqual(&env, "primary", &env, "replica");
  EXPECT_FALSE(env.FileExists("replica/signer.tree"));

  const std::string signer_key = (*opened)->SignerPublicKey();
  opened->reset();
  obs::MetricsRegistry metrics;
  VaultOptions promote_options = PrimaryOptions(&env, &clock);
  promote_options.metrics = &metrics;
  auto promoted = (*applier)->Promote(promote_options);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*promoted)->SignerPublicKey(), signer_key);
  EXPECT_EQ(metrics.GetCounter("vault.open.signer_rebuilt")->Value(), 1u);
  EXPECT_TRUE(env.FileExists("replica/signer.tree"));
  auto promoted_cursor = core::CursorForVaultDir(&env, "replica", key);
  ASSERT_TRUE(promoted_cursor.ok());
  EXPECT_EQ(promoted_cursor->files.count(core::kSignerTreeFile), 0u);
}

TEST(ReplicationTest, CryptoShredReplicates) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok());
  Vault* primary = opened->get();
  ASSERT_EQ(SeedPrimary(primary).size(), 3u);
  auto doomed = primary->CreateRecord("dr", "p", "text/plain",
                                      "short-lived", {"delta"}, "short-1y");
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(primary->SyncAll().ok());

  ReplicationSource source(primary);
  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok());
  ASSERT_TRUE(Ship(&source, applier->get()).ok());

  // Shred on the primary: the key-log rewrite ships as a verified
  // whole-file replacement (rewrite generation invalidates the prefix).
  clock.AdvanceYears(2);
  ASSERT_TRUE(primary->DisposeRecord("admin", *doomed).ok());
  ASSERT_TRUE(primary->SyncAll().ok());
  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  ExpectDirsEqual(&env, "primary", &env, "replica");

  auto view = (*applier)->OpenReadView(PrimaryOptions(&env, &clock), "view");
  ASSERT_TRUE(view.ok());
  auto read = (*view)->ReadRecord("p", *doomed);
  EXPECT_TRUE(read.status().IsKeyDestroyed())
      << "shredded record still readable on the replica: "
      << read.status().ToString();
}

// ---------------------------------------------------------------------------
// (b) Tamper evidence and quarantine
// ---------------------------------------------------------------------------

TEST(ReplicationTest, TamperedChunkRefusedWithPinpointedEvidence) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ReplicationSource source(opened->get());

  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok());
  auto cursor = (*applier)->Cursor();
  ASSERT_TRUE(cursor.ok());
  auto batch = source.CutBatch(*cursor);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->chunks.empty());

  // Flip one bit in one chunk's payload: the per-chunk leaf hash names
  // the exact chunk, and the replica quarantines.
  ShippedBatch tampered = *batch;
  tampered.chunks[1].data[0] ^= 0x01;
  Status refused = (*applier)->Apply(tampered);
  EXPECT_TRUE(refused.IsTamperDetected()) << refused.ToString();
  EXPECT_NE(refused.message().find("chunk 1"), std::string::npos)
      << "tamper evidence does not pinpoint the chunk: " << refused.ToString();
  EXPECT_NE(refused.message().find(tampered.chunks[1].path),
            std::string::npos)
      << refused.ToString();
  EXPECT_TRUE((*applier)->quarantined());
  EXPECT_FALSE((*applier)->quarantine_reason().empty());
  EXPECT_EQ((*applier)->applied_batches(), 0u);

  // Quarantine is sticky: even the CLEAN batch is refused now.
  Status still = (*applier)->Apply(*batch);
  EXPECT_TRUE(still.IsFailedPrecondition()) << still.ToString();

  // Operator override after investigation: the clean batch applies.
  (*applier)->ClearQuarantine();
  ASSERT_TRUE((*applier)->Apply(*batch).ok());
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  ExpectDirsEqual(&env, "primary", &env, "replica");
}

TEST(ReplicationTest, BitFlippedAndTornTransportsRefused) {
  storage::MemEnv env;
  storage::FaultInjectionEnv fault(&env);
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ReplicationSource source(opened->get());

  auto fresh_batch = [&](const std::string& dir)
      -> std::pair<std::unique_ptr<ReplicaApplier>, std::string> {
    auto applier = ReplicaApplier::Open(ApplierOptions(&env, dir));
    EXPECT_TRUE(applier.ok());
    auto cursor = (*applier)->Cursor();
    EXPECT_TRUE(cursor.ok());
    auto batch = source.CutBatch(*cursor);
    EXPECT_TRUE(batch.ok());
    return {std::move(*applier), batch->Encode()};
  };

  {
    // Bit rot in transit, injected through the adversary channel: the
    // encoded batch rests on disk (a spool file), FlipBit rots it, and
    // the applier must refuse what it reads back.
    auto [applier, encoded] = fresh_batch("replica-rot");
    ASSERT_TRUE(storage::WriteStringToFile(&fault, Slice(encoded),
                                           "spool.batch", /*sync=*/true)
                    .ok());
    ASSERT_TRUE(fault.FlipBit("spool.batch", encoded.size() / 2, 3).ok());
    std::string rotted;
    ASSERT_TRUE(storage::ReadFileToString(&fault, "spool.batch", &rotted).ok());
    Status refused = applier->ApplyEncoded(Slice(rotted));
    EXPECT_TRUE(refused.IsTamperDetected()) << refused.ToString();
    EXPECT_TRUE(applier->quarantined());
  }
  {
    // Torn transfer: a truncated encoding is refused as tamper, not
    // misapplied as a shorter batch.
    auto [applier, encoded] = fresh_batch("replica-torn");
    Status refused =
        applier->ApplyEncoded(Slice(encoded.data(), encoded.size() / 2));
    EXPECT_TRUE(refused.IsTamperDetected()) << refused.ToString();
    EXPECT_NE(refused.message().find("torn or tampered"), std::string::npos);
    EXPECT_TRUE(applier->quarantined());
  }
  {
    // Header forgery: a flipped audit-root bit fails the HMAC before
    // any chunk is even considered.
    auto [applier, encoded] = fresh_batch("replica-forge");
    auto batch = ShippedBatch::Decode(Slice(encoded));
    ASSERT_TRUE(batch.ok());
    batch->audit_root[0] ^= 0x01;
    Status refused = applier->Apply(*batch);
    EXPECT_TRUE(refused.IsTamperDetected()) << refused.ToString();
    EXPECT_NE(refused.message().find("authentication"), std::string::npos);
    EXPECT_TRUE(applier->quarantined());
  }
}

TEST(ReplicationTest, CutEndpointRefusesUnauthenticatedCursors) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ReplicationSource source(opened->get());

  // A cursor signed with the WRONG secret never learns vault bytes.
  auto forged = core::CursorForVaultDir(
      &env, "replica-none", core::DeriveReplicationAuthKey("wrong-secret"));
  ASSERT_TRUE(forged.ok());
  auto refused = source.HandleCutRequest(Slice(forged->Encode()));
  EXPECT_TRUE(refused.status().IsPermissionDenied())
      << refused.status().ToString();

  // The properly derived key is accepted.
  auto genuine = core::CursorForVaultDir(
      &env, "replica-none", core::DeriveReplicationAuthKey(kEntropy));
  ASSERT_TRUE(genuine.ok());
  auto batch = source.HandleCutRequest(Slice(genuine->Encode()));
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
}

// ---------------------------------------------------------------------------
// Satellite regression: a failed mid-batch apply must not advance the
// replica's applied-offset cursor (the AppendBatch partial-append class
// of bug, observed at the replication layer).
// ---------------------------------------------------------------------------

TEST(ReplicationTest, FailedMidBatchApplyDoesNotAdvanceCursor) {
  storage::MemEnv primary_env;
  storage::MemEnv replica_mem;
  storage::FaultInjectionEnv replica_env(&replica_mem);
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&primary_env, &clock));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ReplicationSource source(opened->get());

  auto applier = ReplicaApplier::Open(ApplierOptions(&replica_env));
  ASSERT_TRUE(applier.ok());
  auto cursor = (*applier)->Cursor();
  ASSERT_TRUE(cursor.ok());
  auto batch = source.CutBatch(*cursor);
  ASSERT_TRUE(batch.ok());
  ASSERT_GT(batch->chunks.size(), 1u);

  // The first chunk lands, everything after fails cleanly: some chunks
  // landed, the batch did not.
  replica_env.FailAfterWrites(1);
  Status failed = (*applier)->Apply(*batch);
  replica_env.Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(failed.IsTamperDetected()) << failed.ToString();
  EXPECT_FALSE((*applier)->quarantined())
      << "an I/O failure is lag, not tamper";

  // The batch cursor did NOT advance...
  EXPECT_EQ((*applier)->applied_batches(), 0u);
  EXPECT_EQ((*applier)->last_applied_seq(), 0u);

  // ...and the same batch re-applies idempotently from on-disk truth.
  ASSERT_TRUE((*applier)->Apply(*batch).ok()) << "resume failed";
  EXPECT_EQ((*applier)->applied_batches(), 1u);
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  ExpectDirsEqual(&primary_env, "primary", &replica_env, "replica");
}

// ---------------------------------------------------------------------------
// (d) Lag and partition: catch-up from the replica's own cursor
// ---------------------------------------------------------------------------

TEST(ReplicationTest, LaggingReplicaCatchesUpToRootEquality) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok());
  Vault* primary = opened->get();
  const std::vector<std::string> ids = SeedPrimary(primary);
  ASSERT_EQ(ids.size(), 3u);
  ReplicationSource source(primary);

  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok());
  ASSERT_TRUE(Ship(&source, applier->get()).ok());
  EXPECT_EQ((*applier)->lag_bytes(), 0u);

  // Partition: the primary keeps committing while the replica hears
  // nothing — several whole batches are simply never pulled.
  for (int round = 0; round < 4; round++) {
    auto id = primary->CreateRecord("dr", "p", "text/plain",
                                    "during partition " + std::to_string(round),
                                    {"shared"}, "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(primary->SyncAll().ok());
  }

  // The source's view of the backlog is visible at the next cut; one
  // pull round heals the whole partition (cursor protocol, no replay).
  auto cursor = (*applier)->Cursor();
  ASSERT_TRUE(cursor.ok());
  auto batch = source.CutBatch(*cursor);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->lag_at_cut, 0u) << "backlog invisible at the cut";
  ASSERT_TRUE((*applier)->Apply(*batch).ok());
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  ExpectDirsEqual(&env, "primary", &env, "replica");
}

// ---------------------------------------------------------------------------
// (c) Promotion: crash-recovery open behind a scrub gate
// ---------------------------------------------------------------------------

TEST(ReplicationTest, PromotionAfterPrimaryKillPreservesContent) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  std::string content_root;
  std::vector<std::string> ids;
  {
    auto opened = Vault::Open(PrimaryOptions(&env, &clock));
    ASSERT_TRUE(opened.ok());
    Vault* primary = opened->get();
    ids = SeedPrimary(primary);
    ASSERT_EQ(ids.size(), 3u);
    ReplicationSource source(primary);
    auto applier = ReplicaApplier::Open(ApplierOptions(&env));
    ASSERT_TRUE(applier.ok());
    ASSERT_TRUE(Ship(&source, applier->get()).ok());
    content_root = primary->ContentRoot();
    // Primary killed here: the vault object goes away and nothing more
    // is shipped.
  }

  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok());
  auto promoted = (*applier)->Promote(PrimaryOptions(&env, &clock));
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // The promoted vault is the old primary, bit for bit where it counts.
  EXPECT_EQ((*promoted)->ContentRoot(), content_root);
  EXPECT_LE(RecoveryEvents(promoted->get()), 1)
      << "promotion recovery must be a single audited repair";
  EXPECT_TRUE((*promoted)->VerifyAudit().ok());
  for (const std::string& id : ids) {
    EXPECT_TRUE((*promoted)->ReadRecord("dr", id).ok()) << id;
  }

  // It serves as the NEW primary: fresh ingest and onward shipping.
  auto fresh = (*promoted)->CreateRecord("dr", "p", "text/plain",
                                         "post-promotion note", {"fresh"},
                                         "hipaa-6y");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE((*promoted)->SyncAll().ok());

  // The applier's shipping role is over: applying to a promoted
  // replica would fork it from its own served state.
  ShippedBatch stale;
  Status refused = (*applier)->Apply(stale);
  EXPECT_TRUE(refused.IsFailedPrecondition()) << refused.ToString();
}

TEST(ReplicationTest, StructurallyDamagedReplicaQuarantinesInsteadOfPromoting) {
  storage::MemEnv env;
  storage::FaultInjectionEnv fault(&env);
  ManualClock clock(1000000);
  {
    auto opened = Vault::Open(PrimaryOptions(&env, &clock));
    ASSERT_TRUE(opened.ok());
    ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
    ReplicationSource source(opened->get());
    auto applier = ReplicaApplier::Open(ApplierOptions(&env));
    ASSERT_TRUE(applier.ok());
    ASSERT_TRUE(Ship(&source, applier->get()).ok());
  }

  // Silent media damage on the REPLICA between apply and promotion —
  // the window replication cannot vouch for, only the scrub gate can.
  std::vector<std::string> segments;
  ASSERT_TRUE(env.GetChildren("replica/segments", &segments).ok());
  ASSERT_FALSE(segments.empty());
  std::sort(segments.begin(), segments.end());
  ASSERT_TRUE(
      fault.FlipBit("replica/segments/" + segments.back(), 40, 2).ok());

  auto applier = ReplicaApplier::Open(ApplierOptions(&env));
  ASSERT_TRUE(applier.ok());
  auto promoted = (*applier)->Promote(PrimaryOptions(&env, &clock));
  EXPECT_FALSE(promoted.ok())
      << "a damaged replica must never become the primary";
  EXPECT_TRUE((*applier)->quarantined());
  EXPECT_FALSE((*applier)->quarantine_reason().empty());
}

// ---------------------------------------------------------------------------
// (a) Primary crash matrix: the replica is never ahead of the
// recovered primary, at every I/O boundary, in both crash modes.
// ---------------------------------------------------------------------------

/// The replicated workload: mutate, sync, ship — four rounds. Bails on
/// the first error (the planned power cut kills everything after it).
void RunReplicatedWorkload(storage::Env* primary_env, ManualClock* clock,
                           ReplicaApplier* applier) {
  auto opened = Vault::Open(PrimaryOptions(primary_env, clock));
  if (!opened.ok()) return;
  Vault* primary = opened->get();
  ReplicationSource source(primary);

  if (SeedPrimary(primary).empty()) return;
  if (!Ship(&source, applier).ok()) return;

  auto r = primary->CreateRecord("dr", "p", "text/plain", "round two",
                                 {"shared"}, "hipaa-6y");
  if (!r.ok()) return;
  if (!primary->SyncAll().ok()) return;
  if (!Ship(&source, applier).ok()) return;

  if (!primary
           ->CorrectRecord("dr", *r, "round two, corrected", "typo",
                           {"shared"})
           .ok())
    return;
  if (!primary->SyncAll().ok()) return;
  if (!Ship(&source, applier).ok()) return;

  auto last = primary->CreateRecord("dr", "p", "text/plain", "round four",
                                    {"shared"}, "hipaa-6y");
  if (!last.ok()) return;
  if (!primary->SyncAll().ok()) return;
  (void)Ship(&source, applier);
}

/// Post-crash contract: everything the replica's read view serves, the
/// recovered primary serves at >= that version — then the recovered
/// primary ships the replica back to byte equality.
void CheckReplicaNotAhead(storage::MemEnv* primary_env, ManualClock* clock,
                          storage::Env* replica_env,
                          const std::string& label) {
  SCOPED_TRACE(label);
  auto reopened = Vault::Open(PrimaryOptions(primary_env, clock));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Vault* primary = reopened->get();
  EXPECT_TRUE(primary->VerifyAudit().ok());

  // A fresh applier rebuilds the applied-offset cursor from disk (the
  // old process died with the primary's power supply, as far as this
  // scenario cares).
  auto applier = ReplicaApplier::Open(ApplierOptions(replica_env));
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  auto view =
      (*applier)->OpenReadView(PrimaryOptions(replica_env, clock), "view");
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  for (const std::string& id : (*view)->ListRecordIds()) {
    auto meta = (*view)->GetRecordMeta(id);
    ASSERT_TRUE(meta.ok()) << id;
    auto replica_read = (*view)->ReadRecord(meta->patient_id, id);
    ASSERT_TRUE(replica_read.ok()) << id << ": "
                                   << replica_read.status().ToString();
    auto primary_read = primary->ReadRecord(meta->patient_id, id);
    ASSERT_TRUE(primary_read.ok())
        << "replica exposes " << id
        << ", which the recovered primary cannot serve: "
        << primary_read.status().ToString();
    EXPECT_GE(primary_read->header.version, replica_read->header.version)
        << "replica ahead of the recovered primary on " << id;
  }

  // Catch-up: the recovered primary resumes shipping from the replica's
  // cursor (full-file fallback where recovery rewrote artifacts).
  ReplicationSource source(primary);
  for (int i = 0; i < 3 && (*applier)->lag_bytes() != 0; i++) {
    Status shipped = Ship(&source, applier->get());
    ASSERT_TRUE(shipped.ok()) << shipped.ToString();
  }
  Status final_ship = Ship(&source, applier->get());
  ASSERT_TRUE(final_ship.ok()) << final_ship.ToString();
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  ExpectDirsEqual(primary_env, "primary", replica_env, "replica");
}

uint64_t CountReplicatedBoundaries() {
  storage::MemEnv primary_mem;
  primary_mem.SetCrashTrackingEnabled(true);
  storage::FaultInjectionEnv fault(&primary_mem);
  storage::MemEnv replica_env;
  ManualClock clock(1000000);
  auto applier = ReplicaApplier::Open(ApplierOptions(&replica_env));
  EXPECT_TRUE(applier.ok());
  RunReplicatedWorkload(&fault, &clock, applier->get());
  // The dry run must converge, or the matrix tests a truncated stream.
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  EXPECT_EQ((*applier)->applied_batches(), 4u);
  return fault.ops();
}

void RunPrimaryCrashMatrix(storage::CrashMode mode) {
  const uint64_t boundaries = CountReplicatedBoundaries();
  ASSERT_GT(boundaries, 0u);
  for (uint64_t k = 0; k < boundaries; k++) {
    storage::MemEnv primary_mem;
    primary_mem.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&primary_mem);
    storage::MemEnv replica_env;
    ManualClock clock(1000000);
    fault.PlanCrash(k);

    auto applier = ReplicaApplier::Open(ApplierOptions(&replica_env));
    ASSERT_TRUE(applier.ok());
    RunReplicatedWorkload(&fault, &clock, applier->get());
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";
    ASSERT_FALSE((*applier)->quarantined())
        << "a primary crash must read as lag on the replica, never tamper";

    primary_mem.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    CheckReplicaNotAhead(&primary_mem, &clock, &replica_env,
                         "primary crash at boundary " + std::to_string(k));
  }
}

TEST(ReplicatedCrashMatrixTest, PrimaryKilledAtEveryBoundaryDropUnsynced) {
  RunPrimaryCrashMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(ReplicatedCrashMatrixTest, PrimaryKilledAtEveryBoundaryKeepPartial) {
  RunPrimaryCrashMatrix(storage::CrashMode::kKeepPartial);
}

// ---------------------------------------------------------------------------
// Replica crash matrix: the APPLIER dies at every I/O boundary of its
// own apply stream, and a fresh applier resumes from disk — torn local
// tails are lag, never quarantine.
// ---------------------------------------------------------------------------

/// Pulls until converged against a fixed primary; bails on error.
void PullUntilConverged(ReplicationSource* source, ReplicaApplier* applier) {
  for (int i = 0; i < 6; i++) {
    if (!Ship(source, applier).ok()) return;
    if (applier->lag_bytes() == 0 && applier->applied_batches() > 0) return;
  }
}

void RunReplicaCrashMatrix(storage::CrashMode mode) {
  // Fixed primary, built once: pulls never mutate it.
  storage::MemEnv primary_env;
  ManualClock clock(1000000);
  auto opened = Vault::Open(PrimaryOptions(&primary_env, &clock));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(SeedPrimary(opened->get()).size(), 3u);
  ReplicationSource source(opened->get());

  // Dry run on a pristine replica env to count apply-side boundaries.
  uint64_t boundaries = 0;
  {
    storage::MemEnv replica_mem;
    replica_mem.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&replica_mem);
    auto applier = ReplicaApplier::Open(ApplierOptions(&fault));
    ASSERT_TRUE(applier.ok());
    PullUntilConverged(&source, applier->get());
    ASSERT_EQ((*applier)->lag_bytes(), 0u);
    boundaries = fault.ops();
  }
  ASSERT_GT(boundaries, 0u);

  for (uint64_t k = 0; k < boundaries; k++) {
    SCOPED_TRACE("replica crash at boundary " + std::to_string(k));
    storage::MemEnv replica_mem;
    replica_mem.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&replica_mem);
    fault.PlanCrash(k);
    {
      auto applier = ReplicaApplier::Open(ApplierOptions(&fault));
      if (applier.ok()) PullUntilConverged(&source, applier->get());
    }
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";
    replica_mem.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    fault.Reset();

    // A fresh applier (fresh process) resumes from whatever survived.
    auto resumed = ReplicaApplier::Open(ApplierOptions(&fault));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_FALSE((*resumed)->quarantined())
        << "a torn local tail must read as lag, not tamper: "
        << (*resumed)->quarantine_reason();
    PullUntilConverged(&source, resumed->get());
    EXPECT_EQ((*resumed)->lag_bytes(), 0u);
    ExpectDirsEqual(&primary_env, "primary", &fault, "replica");
  }
}

TEST(ReplicatedCrashMatrixTest, ReplicaKilledAtEveryBoundaryDropUnsynced) {
  RunReplicaCrashMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(ReplicatedCrashMatrixTest, ReplicaKilledAtEveryBoundaryKeepPartial) {
  RunReplicaCrashMatrix(storage::CrashMode::kKeepPartial);
}

// ---------------------------------------------------------------------------
// Sharded topology: per-shard streams, sharded promotion
// ---------------------------------------------------------------------------

ShardedVaultOptions ShardedPrimaryOptions(storage::Env* env,
                                          const Clock* clock) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "sharded-primary";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = kEntropy;
  options.num_shards = 2;
  options.signer_height = 4;
  options.ingest_threads = 1;
  return options;
}

/// Two patient ids that hash to shard 0 and shard 1 respectively.
std::vector<std::string> PatientsPerShard() {
  core::ShardRouter router(2);
  std::vector<std::string> patients(2);
  std::vector<bool> found(2, false);
  for (int i = 0; !(found[0] && found[1]); ++i) {
    std::string candidate = "pat-" + std::to_string(i);
    uint32_t shard = router.ShardOf(candidate);
    if (!found[shard]) {
      patients[shard] = candidate;
      found[shard] = true;
    }
  }
  return patients;
}

TEST(ShardedReplicationTest, PerShardStreamsConvergeAndPromote) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = ShardedVault::Open(ShardedPrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedVault* primary = opened->get();
  const std::vector<std::string> patients = PatientsPerShard();

  ASSERT_TRUE(
      primary->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      primary->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"})
          .ok());
  std::vector<std::string> ids;
  for (const std::string& patient : patients) {
    ASSERT_TRUE(primary
                    ->RegisterPrincipal("admin",
                                        {patient, Role::kPatient, patient})
                    .ok());
    ASSERT_TRUE(primary->AssignCare("admin", "dr", patient).ok());
    auto id = primary->CreateRecord("dr", patient, "text/plain",
                                    "note for " + patient, {"shared"},
                                    "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(primary->SyncAll().ok());

  ShardedReplicationSource source(primary);
  ShardedReplicaApplier::Options applier_options;
  applier_options.env = &env;
  applier_options.dir = "sharded-replica";
  applier_options.entropy = kEntropy;
  applier_options.num_shards = 2;
  applier_options.apply_threads = 1;  // deterministic
  auto applier = ShardedReplicaApplier::Open(applier_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();

  auto cursors = (*applier)->Cursors();
  ASSERT_TRUE(cursors.ok());
  auto batches = source.CutAll(*cursors);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), 2u);
  ASSERT_TRUE((*applier)->ApplyAll(*batches).ok());
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  EXPECT_EQ((*applier)->quarantined_shards(), 0u);
  for (uint32_t k = 0; k < 2; k++) {
    ExpectDirsEqual(&env, "sharded-primary/shard-" + std::to_string(k), &env,
                    "sharded-replica/shard-" + std::to_string(k));
  }

  // Tamper one shard's stream: only that shard quarantines; the other
  // keeps applying.
  auto cursors2 = (*applier)->Cursors();
  ASSERT_TRUE(cursors2.ok());
  auto batches2 = source.CutAll(*cursors2);
  ASSERT_TRUE(batches2.ok());
  (*batches2)[1].audit_root[0] ^= 0x01;
  Status partial = (*applier)->ApplyAll(*batches2);
  EXPECT_TRUE(partial.IsTamperDetected()) << partial.ToString();
  EXPECT_EQ((*applier)->quarantined_shards(), 1u);
  EXPECT_TRUE((*applier)->any_quarantined());

  // Operator clears it; a clean round reconverges both shards.
  (*applier)->shard(1)->ClearQuarantine();
  auto cursors3 = (*applier)->Cursors();
  ASSERT_TRUE(cursors3.ok());
  auto batches3 = source.CutAll(*cursors3);
  ASSERT_TRUE(batches3.ok());
  ASSERT_TRUE((*applier)->ApplyAll(*batches3).ok());
  EXPECT_EQ((*applier)->quarantined_shards(), 0u);
  EXPECT_EQ((*applier)->lag_bytes(), 0u);

  // Sharded promotion: scrub gate per shard, then a degraded-capable
  // open; the promoted vault serves every record.
  std::string root0 = primary->shard(0)->ContentRoot();
  std::string root1 = primary->shard(1)->ContentRoot();
  auto promoted = (*applier)->Promote(ShardedPrimaryOptions(&env, &clock));
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*promoted)->num_shards(), 2u);
  EXPECT_EQ((*promoted)->shard(0)->ContentRoot(), root0);
  EXPECT_EQ((*promoted)->shard(1)->ContentRoot(), root1);
  for (const std::string& id : ids) {
    EXPECT_TRUE((*promoted)->ReadRecord("dr", id).ok()) << id;
  }
  for (uint32_t k = 0; k < 2; k++) {
    EXPECT_LE(RecoveryEvents((*promoted)->shard(k)), 1) << "shard " << k;
  }
}

// ---------------------------------------------------------------------------
// The wire: /v1/replication status + the cursor-authenticated cut
// endpoint, end to end over real sockets.
// ---------------------------------------------------------------------------

/// Writes `request` to a fresh loopback connection to `port` and returns
/// every byte the server sends back until it closes the connection.
std::string RawExchange(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(server::WriteAll(fd, request));
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// The shard count is on-disk identity for a replica exactly as for the
// primary: reopening a replica directory with another count is refused
// with the same InvalidArgument verdict, naming both counts.
TEST(ShardedReplicationTest, ReplicaRefusesShardCountMismatch) {
  storage::MemEnv env;
  ShardedReplicaApplier::Options options;
  options.env = &env;
  options.dir = "replica";
  options.entropy = kEntropy;
  options.num_shards = 2;
  options.apply_threads = 1;
  ASSERT_TRUE(ShardedReplicaApplier::Open(options).ok());

  options.num_shards = 3;
  auto wrong = ShardedReplicaApplier::Open(options);
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsInvalidArgument()) << wrong.status().ToString();
  EXPECT_NE(wrong.status().message().find("2"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("3"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("mismatch"), std::string::npos);

  options.num_shards = 2;
  EXPECT_TRUE(ShardedReplicaApplier::Open(options).ok());
}

TEST(ReplicationServerTest, ReplicaPullsOverHttpAndHealthReportsPosture) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  obs::MetricsRegistry registry;
  ShardedVaultOptions vault_options = ShardedPrimaryOptions(&env, &clock);
  vault_options.metrics = &registry;
  auto opened = ShardedVault::Open(vault_options);
  ASSERT_TRUE(opened.ok());
  ShardedVault* primary = opened->get();
  const std::vector<std::string> patients = PatientsPerShard();
  ASSERT_TRUE(
      primary->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      primary->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"})
          .ok());
  ASSERT_TRUE(primary
                  ->RegisterPrincipal(
                      "admin", {patients[0], Role::kPatient, patients[0]})
                  .ok());
  ASSERT_TRUE(primary->AssignCare("admin", "dr", patients[0]).ok());
  auto id = primary->CreateRecord("dr", patients[0], "text/plain",
                                  "wire note", {"shared"}, "hipaa-6y");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(primary->SyncAll().ok());

  ShardedReplicationSource source(primary);
  server::ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = 2;
  server_options.session_entropy = "repl-server-session";
  server_options.clock = &clock;
  server_options.repl_source = &source;
  auto server = server::MedVaultServer::Start(primary, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ShardedReplicaApplier::Options applier_options;
  applier_options.env = &env;
  applier_options.dir = "sharded-replica";
  applier_options.entropy = kEntropy;
  applier_options.num_shards = 2;
  applier_options.apply_threads = 1;
  auto applier = ShardedReplicaApplier::Open(applier_options);
  ASSERT_TRUE(applier.ok());

  server::HttpClient client;
  ASSERT_TRUE(client.Connect((*server)->port()).ok());

  // Status route, unauthenticated (like /v1/health).
  auto status_resp = client.Do("GET", "/v1/replication");
  ASSERT_TRUE(status_resp.ok());
  EXPECT_EQ(status_resp->status, 200);
  auto status_json = obs::json::Value::Parse(status_resp->body);
  ASSERT_TRUE(status_json.ok()) << status_resp->body;
  EXPECT_EQ(status_json->as_object().at("role").as_string(), "primary");

  // The full pull protocol over the wire, per shard.
  for (uint32_t k = 0; k < 2; k++) {
    auto cursor = (*applier)->shard(k)->Cursor();
    ASSERT_TRUE(cursor.ok());
    auto resp = client.Do("POST", "/v1/replication/cut/" + std::to_string(k),
                          cursor->Encode());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->status, 200) << resp->body;
    ASSERT_TRUE((*applier)->shard(k)->ApplyEncoded(Slice(resp->body)).ok());
  }
  EXPECT_EQ((*applier)->lag_bytes(), 0u);
  EXPECT_EQ((*applier)->applied_batches(), 2u);

  // A cut is binary, and says so exactly once.
  {
    auto cursor = (*applier)->shard(0)->Cursor();
    ASSERT_TRUE(cursor.ok());
    const std::string body = cursor->Encode();
    std::string head = RawExchange(
        (*server)->port(),
        "POST /v1/replication/cut/0 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Length: " +
            std::to_string(body.size()) +
            "\r\nConnection: close\r\n\r\n" + body);
    head.resize(std::min(head.size(), head.find("\r\n\r\n") + 2));
    EXPECT_EQ(head.rfind("HTTP/1.1 200 ", 0), 0u) << head;
    EXPECT_NE(head.find("\r\nContent-Type: application/octet-stream\r\n"),
              std::string::npos)
        << head;
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    size_t content_types = 0;
    for (size_t at = head.find("\r\ncontent-type:"); at != std::string::npos;
         at = head.find("\r\ncontent-type:", at + 1)) {
      content_types++;
    }
    EXPECT_EQ(content_types, 1u) << head;
  }

  // A caller without the shared secret gets 403 and no vault bytes.
  auto forged = core::CursorForVaultDir(
      &env, "nowhere", core::DeriveReplicationAuthKey("wrong"));
  ASSERT_TRUE(forged.ok());
  auto denied = client.Do("POST", "/v1/replication/cut/0", forged->Encode());
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->status, 403) << denied->body;

  // Unknown shard and non-numeric indexes are rejected, not crashed.
  auto missing = client.Do("POST", "/v1/replication/cut/7", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto garbage = client.Do("POST", "/v1/replication/cut/x", "");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);

  // /v1/health gains the conditional repl section.
  auto health = client.Do("GET", "/v1/health");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health->status, 200);
  auto health_json = obs::json::Value::Parse(health->body);
  ASSERT_TRUE(health_json.ok());
  const auto& health_obj = health_json->as_object();
  ASSERT_NE(health_obj.find("repl"), health_obj.end())
      << "health report missing the repl section";
  const auto& repl = health_obj.at("repl").as_object();
  EXPECT_EQ(repl.at("primary").as_int(), 1);
  EXPECT_GE(repl.at("shipped_batches").as_int(), 2);

  (*server)->Stop();
}

// A cut response carries a whole batch, so the client's response reader
// must not share the server's 1 MiB request-body cap: a first cut of
// over 1 MiB, pulled through HttpClient, applies to byte equality.
TEST(ReplicationServerTest, FirstCutOverOneMebibytePullsOverHttp) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  auto opened = ShardedVault::Open(ShardedPrimaryOptions(&env, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedVault* primary = opened->get();
  const std::string patient = PatientsPerShard()[0];
  ASSERT_TRUE(
      primary->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      primary->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"})
          .ok());
  ASSERT_TRUE(
      primary->RegisterPrincipal("admin", {patient, Role::kPatient, patient})
          .ok());
  ASSERT_TRUE(primary->AssignCare("admin", "dr", patient).ok());
  for (int i = 0; i < 12; i++) {
    const std::string note =
        std::to_string(i) + std::string(128 * 1024, 'n');
    ASSERT_TRUE(primary
                    ->CreateRecord("dr", patient, "text/plain", note,
                                   {"bulk"}, "hipaa-6y")
                    .ok());
  }
  ASSERT_TRUE(primary->SyncAll().ok());

  ShardedReplicationSource source(primary);
  server::ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = 1;
  server_options.session_entropy = "repl-server-session";
  server_options.clock = &clock;
  server_options.repl_source = &source;
  auto server = server::MedVaultServer::Start(primary, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ShardedReplicaApplier::Options applier_options;
  applier_options.env = &env;
  applier_options.dir = "sharded-replica";
  applier_options.entropy = kEntropy;
  applier_options.num_shards = 2;
  applier_options.apply_threads = 1;
  auto applier = ShardedReplicaApplier::Open(applier_options);
  ASSERT_TRUE(applier.ok());

  server::HttpClient client;
  ASSERT_TRUE(client.Connect((*server)->port()).ok());
  auto cursor = (*applier)->shard(0)->Cursor();
  ASSERT_TRUE(cursor.ok());
  auto resp = client.Do("POST", "/v1/replication/cut/0", cursor->Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, 200) << resp->body;
  EXPECT_GT(resp->body.size(), size_t{1} << 20);
  ASSERT_TRUE((*applier)->shard(0)->ApplyEncoded(Slice(resp->body)).ok());
  ExpectDirsEqual(&env, "sharded-primary/shard-0", &env,
                  "sharded-replica/shard-0");

  // The keep-alive connection still frames the next response.
  auto status_resp = client.Do("GET", "/v1/replication");
  ASSERT_TRUE(status_resp.ok()) << status_resp.status().ToString();
  EXPECT_EQ(status_resp->status, 200);

  (*server)->Stop();
}

}  // namespace
}  // namespace medvault
