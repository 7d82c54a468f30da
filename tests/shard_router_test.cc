// Property tests for shard placement: routing must be a pure, stable,
// well-balanced function of the id bytes, and the persisted shard count
// must be enforced at open — if any of these break, records silently
// become unreachable (the worst failure mode a medical archive can
// have, worse than a crash).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hex.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

TEST(ShardRouterTest, FingerprintMatchesPublishedFnv1aVectors) {
  // Golden FNV-1a 64-bit values from the reference specification. If
  // someone "optimizes" the hash, placement of every existing vault
  // changes — these pin the exact function.
  EXPECT_EQ(ShardRouter::Fingerprint(""), 14695981039346656037ULL);
  EXPECT_EQ(ShardRouter::Fingerprint("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ShardRouter::Fingerprint("foobar"), 0x85944171f73967e8ULL);
}

TEST(ShardRouterTest, PlacementIsDeterministicAcrossRouterInstances) {
  // Placement may depend only on (id bytes, shard count) — never on
  // process state, iteration order, or instance identity.
  ShardRouter a(8);
  ShardRouter b(8);
  for (int i = 0; i < 1000; ++i) {
    std::string id = "pat-" + std::to_string(i * 7919);
    EXPECT_EQ(a.ShardOf(id), b.ShardOf(id)) << id;
    EXPECT_LT(a.ShardOf(id), 8u);
  }
}

TEST(ShardRouterTest, PlacementIsUniformWithinTenPercent) {
  // 100k realistic patient ids over 4 shards: each shard must receive
  // its fair share ±10%, or hot shards defeat the point of sharding.
  constexpr uint32_t kShards = 4;
  constexpr int kIds = 100000;
  ShardRouter router(kShards);
  std::vector<int> counts(kShards, 0);
  for (int i = 0; i < kIds; ++i) {
    counts[router.ShardOf("patient-" + std::to_string(i))]++;
  }
  const double expected = static_cast<double>(kIds) / kShards;
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_GT(counts[k], expected * 0.9) << "shard " << k << " starved";
    EXPECT_LT(counts[k], expected * 1.1) << "shard " << k << " hot";
  }
}

TEST(ShardRouterTest, RecordIdRoundTripsThroughPrefix) {
  for (uint32_t k : {0u, 1u, 7u, 63u, 1023u}) {
    std::string id = ShardRouter::RecordIdPrefix(k) + "-42";
    uint32_t parsed = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &parsed)) << id;
    EXPECT_EQ(parsed, k);
  }
}

TEST(ShardRouterTest, RejectsIdsThatDoNotNameAShard) {
  uint32_t shard = 0;
  // Plain unsharded ids and near-miss spellings must not be misrouted.
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s-r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("sX-r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s3r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s3-x-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("shard-3", &shard));
}

TEST(ShardRouterTest, ManifestIsCreatedOnceThenEnforced) {
  storage::MemEnv env;
  // First use creates the root and persists the count; the same count
  // passes again, any other is refused naming both counts.
  ASSERT_TRUE(ShardRouter::CheckOrCreateManifest(&env, "root", 6).ok());
  EXPECT_TRUE(env.FileExists("root/shards.meta"));
  EXPECT_TRUE(ShardRouter::CheckOrCreateManifest(&env, "root", 6).ok());
  Status wrong = ShardRouter::CheckOrCreateManifest(&env, "root", 7);
  EXPECT_TRUE(wrong.IsInvalidArgument()) << wrong.ToString();
  EXPECT_NE(wrong.message().find("6"), std::string::npos);
  EXPECT_NE(wrong.message().find("7"), std::string::npos);
}

TEST(ShardRouterTest, DamagedManifestIsCorruption) {
  storage::MemEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("root").ok());
  for (const std::string contents :
       {"not a manifest\n", "medvault-shards v1\n",
        "medvault-shards v1\ncount=x\n", "medvault-shards v1\ncount=0\n"}) {
    ASSERT_TRUE(storage::WriteStringToFile(&env, contents, "root/shards.meta",
                                           /*sync=*/true)
                    .ok());
    EXPECT_TRUE(
        ShardRouter::CheckOrCreateManifest(&env, "root", 4).IsCorruption())
        << contents;
  }
}

TEST(ShardRouterTest, DisposalRequestIdsRoundTripThroughQualification) {
  for (uint32_t k : {0u, 3u, 1023u}) {
    const std::string qualified =
        ShardRouter::QualifyDisposalRequest(k, "dr-7");
    EXPECT_EQ(qualified, "s" + std::to_string(k) + ":dr-7");
    uint32_t parsed = 0;
    std::string local;
    ASSERT_TRUE(ShardRouter::ShardOfDisposalRequest(qualified, &parsed, &local))
        << qualified;
    EXPECT_EQ(parsed, k);
    EXPECT_EQ(local, "dr-7");
  }
  uint32_t shard = 0;
  std::string local;
  for (const std::string bad :
       {"", "dr-1", "s:dr-1", "s1dr-1", "sX:dr-1", "s1:xr-1", "s1-r-1"}) {
    EXPECT_FALSE(ShardRouter::ShardOfDisposalRequest(bad, &shard, &local))
        << bad;
  }
}

ShardedVaultOptions BaseOptions(storage::Env* env, const Clock* clock,
                                uint32_t shards) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "sharded";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "router-test-entropy";
  options.num_shards = shards;
  options.signer_height = 4;
  return options;
}

TEST(ShardRouterTest, OpenRefusesShardCountMismatch) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  {
    auto vault = ShardedVault::Open(BaseOptions(&env, &clock, 4));
    ASSERT_TRUE(vault.ok()) << vault.status().ToString();
  }
  // Same directory, different count: must refuse with a message that
  // names both counts — an operator typo here must not scramble routing.
  auto wrong = ShardedVault::Open(BaseOptions(&env, &clock, 8));
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsInvalidArgument());
  EXPECT_NE(wrong.status().message().find("4"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("8"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("mismatch"), std::string::npos);
  // The correct count still opens.
  auto right = ShardedVault::Open(BaseOptions(&env, &clock, 4));
  EXPECT_TRUE(right.ok()) << right.status().ToString();
}

// Every shard's key-wrapping master and entropy pool are HKDF-derived
// from the vault's root secrets under fixed per-shard labels. Any change
// to the derivation — even one applied consistently everywhere — would
// orphan every existing vault, so the derived bytes are pinned here.
TEST(ShardRouterTest, ShardSecretsArePinned) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  auto opened = ShardedVault::Open(BaseOptions(&env, &clock, 4));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedVault& vault = **opened;
  // RFC 5869 HKDF-SHA256, empty salt, info "medvault-shard-master-<k>"
  // (32 bytes) and "medvault-shard-entropy-<k>" (64 bytes).
  EXPECT_EQ(HexEncode(vault.shard(0)->options().master_key),
            "22af686e10623037379d5d60014dc03bcc2e7f5d2c10fd1e47f55288072fe1d8");
  EXPECT_EQ(HexEncode(vault.shard(0)->options().entropy),
            "d8a9a5589ac849de74387525e5cd113b9bf62c0d81d04a9e119e63b82d3a2a8b"
            "5a356bee35bb23c3c4fb788af3ae7a8a9cdcd2dc38baa6c9a5d909a4c103e862");
  EXPECT_EQ(HexEncode(vault.shard(3)->options().master_key),
            "bb1e885f431d72dc0e326eb4179b14bdf350c40191ded172bafffbeab3b7a639");
  EXPECT_EQ(HexEncode(vault.shard(3)->options().entropy),
            "599f813aa2e934038863280dfd47f5ebfe96f646ef52032c6dd6115dd4138a94"
            "e5c1a37e89dcf3dcf31650997edf89b40063aa5660e7f5910d7670f8970930af");
}

TEST(ShardRouterTest, PlacementSurvivesVaultReopen) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  std::map<std::string, RecordId> created;
  {
    auto opened = ShardedVault::Open(BaseOptions(&env, &clock, 4));
    ASSERT_TRUE(opened.ok());
    auto vault = std::move(*opened);
    ASSERT_TRUE(
        vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    for (int p = 0; p < 12; ++p) {
      std::string pat = "pat-" + std::to_string(p);
      ASSERT_TRUE(vault
                      ->RegisterPrincipal("admin-r",
                                          {pat, Role::kPatient, pat})
                      .ok());
      ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", pat).ok());
      auto id = vault->CreateRecord("dr-a", pat, "text/plain",
                                    "note for " + pat, {}, "hipaa-6y");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      created[pat] = *id;
    }
    ASSERT_TRUE(vault->SyncAll().ok());
  }
  // Reopen: every record must still be reachable through routing alone,
  // and each id's embedded shard must equal the patient's hash shard.
  auto reopened = ShardedVault::Open(BaseOptions(&env, &clock, 4));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto vault = std::move(*reopened);
  for (const auto& [pat, id] : created) {
    uint32_t embedded = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &embedded)) << id;
    EXPECT_EQ(embedded, vault->router().ShardOf(pat)) << pat;
    auto read = vault->ReadRecord("dr-a", id);
    EXPECT_TRUE(read.ok()) << id << ": " << read.status().ToString();
  }
}

}  // namespace
}  // namespace medvault::core
