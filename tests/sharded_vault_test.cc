// ShardedVault tests: partitioning must be invisible to correctness —
// every Vault guarantee (access control, audit, retention, disposal,
// verifiable migration) holds through the router, while records really
// do spread across independent per-shard stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/migration.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class ShardedVaultTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  void SetUp() override {
    auto opened = ShardedVault::Open(Options("sharded"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    vault_ = std::move(*opened);
    Bootstrap(vault_.get());
  }

  ShardedVaultOptions Options(const std::string& dir,
                              const std::string& entropy = "sharded-test") {
    ShardedVaultOptions options;
    options.env = &env_;
    options.dir = dir;
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = entropy;
    options.num_shards = kShards;
    options.signer_height = 4;
    return options;
  }

  void Bootstrap(ShardedVault* vault) {
    ASSERT_TRUE(
        vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault
                    ->RegisterPrincipal("admin-r",
                                        {"admin-2", Role::kAdmin, "Backup"})
                    .ok());
    ASSERT_TRUE(vault
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    ASSERT_TRUE(vault
                    ->RegisterPrincipal("admin-r",
                                        {"aud-x", Role::kAuditor, "X"})
                    .ok());
    for (int p = 0; p < 16; ++p) {
      std::string pat = Patient(p);
      ASSERT_TRUE(vault
                      ->RegisterPrincipal("admin-r",
                                          {pat, Role::kPatient, pat})
                      .ok());
      ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", pat).ok());
    }
  }

  static std::string Patient(int p) { return "pat-" + std::to_string(p); }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  std::unique_ptr<ShardedVault> vault_;
};

TEST_F(ShardedVaultTest, RecordsSpreadAcrossShardsAndRouteBack) {
  std::set<uint32_t> used_shards;
  for (int p = 0; p < 16; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain",
                                   "note " + std::to_string(p), {"spread"},
                                   "hipaa-6y");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    uint32_t shard = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(*id, &shard));
    EXPECT_EQ(shard, vault_->router().ShardOf(Patient(p)));
    used_shards.insert(shard);
    auto read = vault_->ReadRecord("dr-a", *id);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->plaintext, "note " + std::to_string(p));
  }
  // 16 patients over 4 shards: overwhelmingly likely to hit several.
  EXPECT_GE(used_shards.size(), 2u) << "all records landed on one shard";
  // And the shards really hold disjoint record sets.
  size_t total = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    total += vault_->shard(k)->ListRecordIds().size();
  }
  EXPECT_EQ(total, 16u);
  EXPECT_EQ(vault_->ListRecordIds().size(), 16u);
}

TEST_F(ShardedVaultTest, BatchIngestFansOutAndPreservesOrder) {
  std::vector<Vault::NewRecord> batch;
  for (int i = 0; i < 40; ++i) {
    Vault::NewRecord record;
    record.patient_id = Patient(i % 16);
    record.content_type = "text/plain";
    record.plaintext = "batch item " + std::to_string(i);
    record.keywords = {"batch"};
    record.retention_policy = "hipaa-6y";
    batch.push_back(std::move(record));
  }
  auto ids = vault_->CreateRecordsBatch("dr-a", batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), batch.size());
  ASSERT_TRUE(vault_->SyncAll().ok());

  // ids[i] belongs to batch[i]: the i-th id must decrypt to the i-th
  // plaintext even though sub-batches ran on different shards.
  std::set<RecordId> unique_ids;
  for (size_t i = 0; i < ids->size(); ++i) {
    EXPECT_TRUE(unique_ids.insert((*ids)[i]).second);
    auto read = vault_->ReadRecord("dr-a", (*ids)[i]);
    ASSERT_TRUE(read.ok()) << (*ids)[i];
    EXPECT_EQ(read->plaintext, "batch item " + std::to_string(i)) << i;
  }
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

TEST_F(ShardedVaultTest, SearchMergesAcrossShards) {
  std::vector<RecordId> tagged;
  for (int p = 0; p < 16; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain", "x",
                                   {"diabetes", "q" + std::to_string(p)},
                                   "hipaa-6y");
    ASSERT_TRUE(id.ok());
    tagged.push_back(*id);
  }
  auto hits = vault_->SearchKeyword("dr-a", "diabetes");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(std::set<RecordId>(hits->begin(), hits->end()),
            std::set<RecordId>(tagged.begin(), tagged.end()));
  // Conjunctive search stays per-record correct through the merge.
  auto one = vault_->SearchKeywordsAll("dr-a", {"diabetes", "q3"});
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0], tagged[3]);
}

TEST_F(ShardedVaultTest, UnroutableRecordIdIsNotFound) {
  EXPECT_TRUE(vault_->ReadRecord("dr-a", "r-1").status().IsNotFound());
  EXPECT_TRUE(vault_->ReadRecord("dr-a", "s99-r-1").status().IsNotFound());
  EXPECT_TRUE(
      vault_->GetRecordMeta("not-an-id").status().IsNotFound());
}

// Ids that name no shard of this vault — no shard prefix, a shard past
// the count, an empty shard number — are NotFound on every record-id op,
// never misrouted to some shard; likewise malformed grant and disposal
// request ids.
TEST_F(ShardedVaultTest, EveryRecordIdOpAnswersNotFoundForUnroutableIds) {
  for (const RecordId id : {"r-1", "s9-r-1", "s-r-1"}) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(vault_->ReadRecord("dr-a", id).status().IsNotFound());
    EXPECT_TRUE(
        vault_->ReadRecordVersion("dr-a", id, 1).status().IsNotFound());
    EXPECT_TRUE(vault_->CorrectRecord("dr-a", id, "x", "typo", {})
                    .status()
                    .IsNotFound());
    EXPECT_TRUE(vault_->RecordHistory("dr-a", id).status().IsNotFound());
    EXPECT_TRUE(vault_->DisposeRecord("admin-r", id).status().IsNotFound());
    EXPECT_TRUE(vault_->PlaceLegalHold("admin-r", id, "hold").IsNotFound());
    EXPECT_TRUE(
        vault_->ReleaseLegalHold("admin-r", id, "release").IsNotFound());
    EXPECT_TRUE(vault_->RequestDisposal("admin-r", id).status().IsNotFound());
    EXPECT_TRUE(vault_->GetCustodyChain("aud-x", id).status().IsNotFound());
    EXPECT_TRUE(vault_->ReadAuditTrail("aud-x", id).status().IsNotFound());
    EXPECT_TRUE(vault_->GetRecordMeta(id).status().IsNotFound());
    EXPECT_TRUE(vault_->VerifyRecord(id).IsNotFound());
    EXPECT_TRUE(vault_->GrantConsent(Patient(0), "dr-a", id, "opinion", 3600)
                    .status()
                    .IsNotFound());
  }
  EXPECT_TRUE(vault_->RevokeConsent(Patient(0), "cg-1").IsNotFound());
  for (const std::string request : {"s:dr-1", "s1dr-1", "s99:dr-1", "sX:dr-1"}) {
    EXPECT_TRUE(
        vault_->ApproveDisposal("admin-2", request).status().IsNotFound())
        << request;
  }
}

TEST_F(ShardedVaultTest, AuditChainsVerifyPerShardAndCheckpoint) {
  for (int p = 0; p < 8; ++p) {
    ASSERT_TRUE(vault_
                    ->CreateRecord("dr-a", Patient(p), "text/plain", "x", {},
                                   "hipaa-6y")
                    .ok());
  }
  EXPECT_TRUE(vault_->VerifyAudit().ok());
  auto checkpoints = vault_->CheckpointAudit();
  ASSERT_TRUE(checkpoints.ok());
  EXPECT_EQ(checkpoints->size(), kShards);
  EXPECT_TRUE(vault_->VerifyEverything().ok());
  // The merged audit trail covers every shard's events.
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  int creates = 0;
  for (const AuditEvent& event : *trail) {
    if (event.action == AuditAction::kCreate) creates++;
  }
  EXPECT_EQ(creates, 8);
}

TEST_F(ShardedVaultTest, DisposalRoutesAndDualControlSpansShards) {
  auto id = vault_->CreateRecord("dr-a", Patient(1), "text/plain",
                                 "expiring", {}, "short-1y");
  ASSERT_TRUE(id.ok());
  clock_.Advance(400LL * 24 * 3600 * kMicrosPerSecond);

  auto expired = vault_->ListExpiredRecords("admin-r");
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired->size(), 1u);
  EXPECT_EQ((*expired)[0].record_id, *id);

  // Two-person flow through the shard-qualified request id.
  auto request = vault_->RequestDisposal("admin-r", *id);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->compare(0, 1, "s"), 0) << *request;
  // Same admin cannot approve; a second admin can.
  EXPECT_FALSE(vault_->ApproveDisposal("admin-r", *request).ok());
  auto cert = vault_->ApproveDisposal("admin-2", *request);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_FALSE(vault_->ReadRecord("dr-a", *id).ok());
  // Bogus request ids are rejected, not misrouted.
  EXPECT_FALSE(vault_->ApproveDisposal("admin-2", "s1:dr-99").ok());
  EXPECT_FALSE(vault_->ApproveDisposal("admin-2", "nonsense").ok());
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

TEST_F(ShardedVaultTest, StateSurvivesReopenIncludingCounters) {
  std::vector<RecordId> ids;
  for (int p = 0; p < 8; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain",
                                   "persist " + std::to_string(p), {},
                                   "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(vault_->SyncAll().ok());
  std::string root_before = vault_->ContentRoot();
  vault_.reset();

  auto reopened = ShardedVault::Open(Options("sharded"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  vault_ = std::move(*reopened);
  EXPECT_EQ(vault_->ContentRoot(), root_before);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto read = vault_->ReadRecord("dr-a", ids[i]);
    ASSERT_TRUE(read.ok()) << ids[i];
    EXPECT_EQ(read->plaintext, "persist " + std::to_string(i));
  }
  // New records keep globally-unique ids (per-shard counters resumed).
  auto fresh = vault_->CreateRecord("dr-a", Patient(0), "text/plain",
                                    "after reopen", {}, "hipaa-6y");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(std::count(ids.begin(), ids.end(), *fresh), 0);
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

TEST_F(ShardedVaultTest, CachedReadsAcrossShardsHitSharedCache) {
  ASSERT_NE(vault_->cache(), nullptr);
  std::vector<RecordId> ids;
  for (int p = 0; p < 8; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain", "warm",
                                   {}, "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (const RecordId& id : ids) {
    ASSERT_TRUE(vault_->ReadRecord("dr-a", id).ok());  // populate
  }
  uint64_t misses_before = vault_->CacheStats().misses;
  for (const RecordId& id : ids) {
    ASSERT_TRUE(vault_->ReadRecord("dr-a", id).ok());  // all hits
  }
  EXPECT_EQ(vault_->CacheStats().misses, misses_before);
  EXPECT_GE(vault_->CacheStats().hits, ids.size());
}

TEST_F(ShardedVaultTest, BreakGlassAndDisclosuresRouteToPatientShard) {
  auto id = vault_->CreateRecord("dr-a", Patient(5), "text/plain",
                                 "sensitive", {}, "hipaa-6y");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"dr-er", Role::kPhysician, "ER"})
                  .ok());
  // dr-er has no care relationship: normal read denied, break-glass
  // grants temporary access on the patient's shard.
  EXPECT_FALSE(vault_->ReadRecord("dr-er", *id).ok());
  auto grant = vault_->BreakGlass("dr-er", Patient(5), "ER admission",
                                  3600 * kMicrosPerSecond);
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_TRUE(vault_->ReadRecord("dr-er", *id).ok());

  auto events = vault_->ListBreakGlassEvents("aud-x");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 1u);
  auto disclosures = vault_->AccountingOfDisclosures("aud-x", Patient(5));
  ASSERT_TRUE(disclosures.ok());
  EXPECT_FALSE(disclosures->empty());
}

TEST_F(ShardedVaultTest, RotateMasterKeyKeepsEveryShardReadable) {
  std::vector<RecordId> ids;
  for (int p = 0; p < 8; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain",
                                   "rotate me", {}, "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(
      vault_->RotateMasterKey("admin-r", std::string(32, 'N')).ok());
  for (const RecordId& id : ids) {
    EXPECT_TRUE(vault_->ReadRecord("dr-a", id).ok()) << id;
  }
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

TEST_F(ShardedVaultTest, ShardedMigrationProducesPerShardReceipts) {
  std::vector<RecordId> ids;
  for (int p = 0; p < 12; ++p) {
    auto id = vault_->CreateRecord("dr-a", Patient(p), "text/plain",
                                   "migrate " + std::to_string(p), {},
                                   "hipaa-6y");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(vault_->SyncAll().ok());

  auto target_opened =
      ShardedVault::Open(Options("sharded-target", "target-entropy"));
  ASSERT_TRUE(target_opened.ok());
  auto target = std::move(*target_opened);
  Bootstrap(target.get());

  auto receipts = Migrator::MigrateSharded(vault_.get(), target.get(),
                                           "admin-r");
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), kShards);
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(Migrator::VerifyReceipt((*receipts)[k], vault_->shard(k),
                                        target->shard(k))
                    .ok())
        << "shard " << k;
  }
  // The whole-vault roots agree, and every record reads on the target.
  EXPECT_EQ(target->ContentRoot(), vault_->ContentRoot());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto read = target->ReadRecord("dr-a", ids[i]);
    ASSERT_TRUE(read.ok()) << ids[i] << ": " << read.status().ToString();
    EXPECT_EQ(read->plaintext, "migrate " + std::to_string(i));
  }
  EXPECT_TRUE(target->VerifyEverything().ok());
}

// Shards open as parallel tasks on the pool unless ingest_threads is 1,
// which opens them inline in shard order. Both opens of the same
// directory must land in the same state, and a strict open that hits
// two damaged shards must report the lower-index one either way.
TEST_F(ShardedVaultTest, ParallelOpenMatchesSequentialOpen) {
  for (int p = 0; p < 16; ++p) {
    ASSERT_TRUE(vault_
                    ->CreateRecord("dr-a", Patient(p), "text/plain",
                                   "open " + std::to_string(p), {"open"},
                                   "hipaa-6y")
                    .ok());
  }
  ASSERT_TRUE(vault_->SyncAll().ok());
  vault_.reset();

  struct Opened {
    std::string content_root;
    std::vector<std::string> audit_roots;
    std::vector<RecordId> ids;
  };
  auto open_with = [&](unsigned threads) {
    ShardedVaultOptions options = Options("sharded");
    options.ingest_threads = threads;
    auto opened = ShardedVault::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    Opened out;
    if (!opened.ok()) return out;
    out.content_root = (*opened)->ContentRoot();
    for (uint32_t k = 0; k < kShards; ++k) {
      out.audit_roots.push_back((*opened)->shard(k)->audit()->Root());
    }
    out.ids = (*opened)->ListRecordIds();
    EXPECT_TRUE((*opened)->VerifyEverything().ok());
    return out;
  };
  const Opened sequential = open_with(1);
  const Opened parallel = open_with(0);
  EXPECT_EQ(parallel.content_root, sequential.content_root);
  EXPECT_EQ(parallel.audit_roots, sequential.audit_roots);
  EXPECT_EQ(parallel.ids, sequential.ids);
  EXPECT_EQ(parallel.ids.size(), 16u);

  // Mid-log rot in two shards' state logs makes both unopenable.
  for (uint32_t k : {1u, 3u}) {
    const std::string path =
        ShardRouter::ShardDir("sharded", k) + "/state.log";
    std::string data;
    ASSERT_TRUE(storage::ReadFileToString(&env_, path, &data).ok());
    const char flipped = static_cast<char>(data[10] ^ 0x40);
    ASSERT_TRUE(env_.UnsafeOverwrite(path, 10, Slice(&flipped, 1)).ok());
  }
  Status errors[2];
  for (unsigned threads : {1u, 0u}) {
    ShardedVaultOptions options = Options("sharded");
    options.ingest_threads = threads;
    auto opened = ShardedVault::Open(options);
    ASSERT_FALSE(opened.ok());
    errors[threads] = opened.status();
  }
  EXPECT_TRUE(errors[1].IsCorruption()) << errors[1].ToString();
  EXPECT_EQ(errors[0].ToString(), errors[1].ToString());
  EXPECT_EQ(errors[0].message().rfind("shard 1: ", 0), 0u)
      << errors[0].ToString();
}

TEST_F(ShardedVaultTest, MigrateShardedRefusesMismatchedCounts) {
  ShardedVaultOptions other = Options("sharded-two", "two-entropy");
  other.num_shards = 2;
  auto target = ShardedVault::Open(other);
  ASSERT_TRUE(target.ok());
  auto receipts =
      Migrator::MigrateSharded(vault_.get(), target->get(), "admin-r");
  ASSERT_FALSE(receipts.ok());
  EXPECT_TRUE(receipts.status().IsInvalidArgument());
}

}  // namespace
}  // namespace medvault::core
