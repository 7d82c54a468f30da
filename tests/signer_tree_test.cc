// signer.tree: each vault directory keeps its XMSS signer's leaves (the
// WOTS public keys) under an HMAC tag keyed from the vault entropy, so
// a reopen hashes only the inner Merkle nodes instead of running key
// generation. The file is derived, never trusted: a missing, short,
// foreign, wrong-height or torn file must reopen to exactly the key a
// from-scratch XmssSigner builds, count one "vault.open.signer_rebuilt",
// and rewrite the file. It must never fail an open, quarantine a shard
// or let a leaf sign twice.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "crypto/hkdf.h"
#include "crypto/xmss.h"
#include "obs/metrics.h"
#include "storage/fault_env.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

constexpr char kEntropy[] = "signer-tree-entropy";
constexpr int kHeight = 4;
/// Version byte, height byte, 2^4 leaves of 32 bytes, 32-byte tag.
constexpr uint64_t kTreeFileBytes = 2 + (1u << kHeight) * 32 + 32;

/// The public key key generation gives for `entropy`, built the slow
/// way from the same HKDF labels the vault uses.
std::string FreshPublicKey(const std::string& entropy, int height) {
  auto secret = crypto::HkdfSha256(entropy, Slice(), "signer-secret", 32);
  auto seed = crypto::HkdfSha256(entropy, Slice(), "signer-public", 32);
  EXPECT_TRUE(secret.ok() && seed.ok());
  return crypto::XmssSigner(*secret, *seed, height).public_key();
}

VaultOptions Options(storage::Env* env, const Clock* clock,
                     obs::MetricsRegistry* metrics,
                     const std::string& dir = "vault",
                     const std::string& entropy = kEntropy,
                     int height = kHeight) {
  VaultOptions options;
  options.env = env;
  options.dir = dir;
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = entropy;
  options.signer_height = height;
  options.metrics = metrics;
  return options;
}

uint64_t Rebuilt(obs::MetricsRegistry* metrics) {
  return metrics->GetCounter("vault.open.signer_rebuilt")->Value();
}

class SignerTreeTest : public ::testing::Test {
 protected:
  /// Opens "vault" with a fresh registry, so the counter reads this
  /// open's rebuilds only.
  std::unique_ptr<Vault> Open(obs::MetricsRegistry* metrics) {
    auto opened = Vault::Open(Options(&env_, &clock_, metrics));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  /// Creates the vault and spends two leaves on audit checkpoints.
  void CreateAndSign() {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Vault> vault = Open(&metrics);
    ASSERT_NE(vault, nullptr);
    EXPECT_EQ(Rebuilt(&metrics), 1u);  // a new directory has no file
    ASSERT_TRUE(vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"})
                    .ok());
    ASSERT_TRUE(vault->CheckpointAudit().ok());
    ASSERT_TRUE(vault->CheckpointAudit().ok());
    ASSERT_TRUE(vault->SyncAll().ok());
    EXPECT_EQ(vault->signer()->SignaturesUsed(), 2u);
  }

  /// Reopens after damage to signer.tree: the key is the from-scratch
  /// key, exactly one rebuild is counted, the file is written back
  /// whole, and signing resumes at the state log's next leaf.
  void ExpectRebuiltOnReopen() {
    {
      obs::MetricsRegistry metrics;
      std::unique_ptr<Vault> vault = Open(&metrics);
      ASSERT_NE(vault, nullptr);
      EXPECT_EQ(Rebuilt(&metrics), 1u);
      EXPECT_EQ(vault->SignerPublicKey(), FreshPublicKey(kEntropy, kHeight));
      EXPECT_TRUE(vault->VerifyAudit().ok());
      ExpectNextLeaf(vault.get(), 2);
    }
    uint64_t size = 0;
    ASSERT_TRUE(env_.GetFileSize("vault/signer.tree", &size).ok());
    EXPECT_EQ(size, kTreeFileBytes);
    obs::MetricsRegistry metrics;
    std::unique_ptr<Vault> vault = Open(&metrics);
    ASSERT_NE(vault, nullptr);
    EXPECT_EQ(Rebuilt(&metrics), 0u);  // the rewritten file is accepted
    EXPECT_EQ(vault->SignerPublicKey(), FreshPublicKey(kEntropy, kHeight));
  }

  void FlipByte(uint64_t offset) {
    std::string tree;
    ASSERT_TRUE(
        storage::ReadFileToString(&env_, "vault/signer.tree", &tree).ok());
    ASSERT_LT(offset, tree.size());
    const char flipped = static_cast<char>(tree[offset] ^ 0x01);
    ASSERT_TRUE(
        env_.UnsafeOverwrite("vault/signer.tree", offset, Slice(&flipped, 1))
            .ok());
  }

  /// The next signature uses leaf `leaf` and verifies under the key.
  static void ExpectNextLeaf(Vault* vault, uint32_t leaf) {
    auto encoded = vault->SignStatement("after reopen");
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    auto sig = crypto::XmssSignature::Decode(*encoded);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->leaf_index, leaf);
    EXPECT_TRUE(crypto::XmssSigner::Verify("after reopen", *sig,
                                           vault->SignerPublicKey(),
                                           vault->SignerPublicSeed(), kHeight)
                    .ok());
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
};

TEST_F(SignerTreeTest, CleanReopenLoadsTheFileAndRebuildsNothing) {
  CreateAndSign();
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("vault/signer.tree", &size).ok());
  EXPECT_EQ(size, kTreeFileBytes);

  obs::MetricsRegistry metrics;
  std::unique_ptr<Vault> vault = Open(&metrics);
  ASSERT_NE(vault, nullptr);
  EXPECT_EQ(Rebuilt(&metrics), 0u);
  EXPECT_EQ(vault->SignerPublicKey(), FreshPublicKey(kEntropy, kHeight));
  EXPECT_TRUE(vault->VerifyAudit().ok());
}

// Signing after a cached-path reopen keeps counting from the state log:
// the two checkpoint leaves are spent, so the next signature is leaf 2,
// and every leaf signs at most once across reopens.
TEST_F(SignerTreeTest, SigningAfterReopenNeverReusesALeaf) {
  CreateAndSign();
  for (uint32_t leaf = 2; leaf < 5; leaf++) {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Vault> vault = Open(&metrics);
    ASSERT_NE(vault, nullptr);
    EXPECT_EQ(Rebuilt(&metrics), 0u);
    EXPECT_EQ(vault->signer()->SignaturesUsed(), leaf);
    ExpectNextLeaf(vault.get(), leaf);
  }
}

TEST_F(SignerTreeTest, MissingFileIsRebuilt) {
  CreateAndSign();
  ASSERT_TRUE(env_.RemoveFile("vault/signer.tree").ok());
  ExpectRebuiltOnReopen();
}

TEST_F(SignerTreeTest, FlippedLeafByteIsRebuilt) {
  CreateAndSign();
  FlipByte(2 + 5 * 32 + 7);  // inside leaf 5
  ExpectRebuiltOnReopen();
}

TEST_F(SignerTreeTest, FlippedTagByteIsRebuilt) {
  CreateAndSign();
  FlipByte(kTreeFileBytes - 1);
  ExpectRebuiltOnReopen();
}

TEST_F(SignerTreeTest, TruncatedFileIsRebuilt) {
  CreateAndSign();
  ASSERT_TRUE(
      env_.UnsafeTruncate("vault/signer.tree", kTreeFileBytes - 40).ok());
  ExpectRebuiltOnReopen();
}

// A validly tagged file from a height-5 signer of the same entropy: the
// header names another height, so it is refused before its tag.
TEST_F(SignerTreeTest, FileOfTheWrongHeightIsRebuilt) {
  CreateAndSign();
  {
    obs::MetricsRegistry metrics;
    auto tall = Vault::Open(
        Options(&env_, &clock_, &metrics, "tall", kEntropy, kHeight + 1));
    ASSERT_TRUE(tall.ok()) << tall.status().ToString();
  }
  std::string tall_tree;
  ASSERT_TRUE(
      storage::ReadFileToString(&env_, "tall/signer.tree", &tall_tree).ok());
  ASSERT_TRUE(storage::WriteStringToFile(&env_, tall_tree, "vault/signer.tree",
                                         true)
                  .ok());
  ExpectRebuiltOnReopen();
}

// Shards derive their entropy from one vault secret; shard 1's valid
// file copied into shard 0 fails shard 0's tag.
TEST(SignerTreeShardTest, AnotherShardsValidFileIsRebuilt) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  std::string entropy[2];
  for (uint32_t k = 0; k < 2; k++) {
    auto e = ShardRouter::ShardEntropy(kEntropy, k);
    ASSERT_TRUE(e.ok());
    entropy[k] = *e;
    obs::MetricsRegistry metrics;
    auto shard = Vault::Open(Options(&env, &clock, &metrics,
                                     "shard-" + std::to_string(k), entropy[k]));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    EXPECT_EQ(Rebuilt(&metrics), 1u);
  }
  std::string other;
  ASSERT_TRUE(
      storage::ReadFileToString(&env, "shard-1/signer.tree", &other).ok());
  ASSERT_TRUE(
      storage::WriteStringToFile(&env, other, "shard-0/signer.tree", true)
          .ok());

  obs::MetricsRegistry metrics;
  auto shard = Vault::Open(
      Options(&env, &clock, &metrics, "shard-0", entropy[0]));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(Rebuilt(&metrics), 1u);
  EXPECT_EQ((*shard)->SignerPublicKey(), FreshPublicKey(entropy[0], kHeight));
  EXPECT_NE((*shard)->SignerPublicKey(), FreshPublicKey(entropy[1], kHeight));
}

// A power cut at every I/O boundary of a vault's first open. Wherever
// it lands, the reopen succeeds with the from-scratch key, and it
// rebuilds exactly when signer.tree did not survive whole; at least one
// boundary must tear or drop the file itself.
void CrashDuringFirstWrite(storage::CrashMode mode) {
  const std::string fresh = FreshPublicKey(kEntropy, kHeight);
  uint64_t boundaries = 0;
  {
    storage::MemEnv env;
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    obs::MetricsRegistry metrics;
    ASSERT_TRUE(Vault::Open(Options(&fault, &clock, &metrics)).ok());
    boundaries = fault.ops();
  }
  ASSERT_GE(boundaries, 1u);  // at least the file's own Append

  int torn_files = 0;
  for (uint64_t k = 0; k < boundaries; k++) {
    SCOPED_TRACE("crash at boundary " + std::to_string(k));
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    {
      obs::MetricsRegistry metrics;
      fault.PlanCrash(k);
      // The open may fail on a log the cut reached first; a failure in
      // signer.tree's own write never fails it.
      (void)Vault::Open(Options(&fault, &clock, &metrics));
      ASSERT_TRUE(fault.crashed());
    }
    env.CrashAndRecover(mode, static_cast<uint32_t>(k));
    fault.Reset();

    uint64_t size = 0;
    const bool present = env.GetFileSize("vault/signer.tree", &size).ok();
    const bool whole = present && size == kTreeFileBytes;
    if (present && !whole) torn_files++;

    obs::MetricsRegistry metrics;
    auto reopened = Vault::Open(Options(&env, &clock, &metrics));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->SignerPublicKey(), fresh);
    EXPECT_EQ(Rebuilt(&metrics), whole ? 0u : 1u);
    ASSERT_TRUE(env.GetFileSize("vault/signer.tree", &size).ok());
    EXPECT_EQ(size, kTreeFileBytes);
  }
  EXPECT_GE(torn_files, 1) << "no boundary cut signer.tree's own write";
}

TEST(SignerTreeCrashTest, CrashDuringFirstWriteDropUnsynced) {
  CrashDuringFirstWrite(storage::CrashMode::kDropUnsynced);
}

TEST(SignerTreeCrashTest, CrashDuringFirstWriteKeepPartial) {
  CrashDuringFirstWrite(storage::CrashMode::kKeepPartial);
}

// The upgrade path: a sharded vault written before signer.tree existed
// (every shard's file deleted) opens degraded with nothing quarantined,
// writes each file back, and keeps every shard's signing key.
TEST(SignerTreeShardTest, DegradedOpenOfALayoutWithoutTheFileUpgrades) {
  constexpr uint32_t kShards = 4;
  storage::MemEnv env;
  ManualClock clock(1000000);
  ShardedVaultOptions options;
  options.env = &env;
  options.dir = "sharded";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = kEntropy;
  options.num_shards = kShards;
  options.signer_height = kHeight;
  options.open_mode = OpenMode::kDegraded;

  std::vector<std::string> keys;
  {
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    auto opened = ShardedVault::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(Rebuilt(&metrics), kShards);
    ASSERT_TRUE((*opened)
                    ->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"})
                    .ok());
    ASSERT_TRUE((*opened)->CheckpointAudit().ok());
    ASSERT_TRUE((*opened)->SyncAll().ok());
    for (uint32_t k = 0; k < kShards; k++) {
      keys.push_back((*opened)->shard(k)->SignerPublicKey());
    }
  }
  for (uint32_t k = 0; k < kShards; k++) {
    ASSERT_TRUE(env.RemoveFile("sharded/shard-" + std::to_string(k) +
                               "/signer.tree")
                    .ok());
  }

  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  auto reopened = ShardedVault::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->QuarantinedShards().empty());
  EXPECT_EQ(Rebuilt(&metrics), kShards);
  for (uint32_t k = 0; k < kShards; k++) {
    ASSERT_NE((*reopened)->shard(k), nullptr);
    EXPECT_EQ((*reopened)->shard(k)->SignerPublicKey(), keys[k]) << k;
    EXPECT_TRUE(env.FileExists((*reopened)->ShardDirPath(k) + "/signer.tree"))
        << k;
  }
  EXPECT_TRUE((*reopened)->VerifyAudit().ok());
}

}  // namespace
}  // namespace medvault::core
