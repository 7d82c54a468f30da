// KeyStore tests: key hierarchy, crypto-shredding, persistence, master
// key rotation, and the guarantee that destroyed keys never resurface.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/coding.h"
#include "core/keystore.h"
#include "crypto/aead.h"
#include "crypto/ctr.h"
#include "crypto/sha256.h"
#include "storage/fault_env.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class KeyStoreTest : public ::testing::Test {
 protected:
  void OpenStore(const std::string& master = std::string(32, 'M')) {
    store_ = std::make_unique<KeyStore>(&env_, "keys.db", master,
                                        "drbg-seed");
    ASSERT_TRUE(store_->Open().ok());
  }

  storage::MemEnv env_;
  std::unique_ptr<KeyStore> store_;
};

TEST_F(KeyStoreTest, CreateAndGet) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  auto key = store_->GetKey("r-1");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->size(), 32u);
  EXPECT_EQ(store_->LiveKeyCount(), 1u);
}

TEST_F(KeyStoreTest, KeysAreUniquePerRecord) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->CreateKey("r-2").ok());
  EXPECT_NE(*store_->GetKey("r-1"), *store_->GetKey("r-2"));
}

TEST_F(KeyStoreTest, DuplicateCreateRejected) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  EXPECT_TRUE(store_->CreateKey("r-1").IsAlreadyExists());
}

TEST_F(KeyStoreTest, UnknownRecordIsNotFound) {
  OpenStore();
  EXPECT_TRUE(store_->GetKey("nope").status().IsNotFound());
  EXPECT_TRUE(store_->DestroyKey("nope").IsNotFound());
}

TEST_F(KeyStoreTest, IndexKeyDiffersFromDataKey) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  auto data_key = store_->GetKey("r-1");
  auto index_key = store_->GetIndexKey("r-1");
  ASSERT_TRUE(data_key.ok());
  ASSERT_TRUE(index_key.ok());
  EXPECT_NE(*data_key, *index_key);
  EXPECT_EQ(index_key->size(), 32u);
}

TEST_F(KeyStoreTest, KeyRefResolvesWhileAlive) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  auto ref = store_->GetKeyRef("r-1");
  ASSERT_TRUE(ref.ok());
  auto resolved = store_->ResolveKeyRef(*ref);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, "r-1");
}

TEST_F(KeyStoreTest, DestroyShredsEverything) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  auto ref = store_->GetKeyRef("r-1");
  ASSERT_TRUE(ref.ok());

  ASSERT_TRUE(store_->DestroyKey("r-1").ok());
  EXPECT_TRUE(store_->IsDestroyed("r-1"));
  EXPECT_TRUE(store_->GetKey("r-1").status().IsKeyDestroyed());
  EXPECT_TRUE(store_->GetIndexKey("r-1").status().IsKeyDestroyed());
  EXPECT_TRUE(store_->GetKeyRef("r-1").status().IsKeyDestroyed());
  EXPECT_TRUE(store_->ResolveKeyRef(*ref).status().IsNotFound());
  EXPECT_EQ(store_->LiveKeyCount(), 0u);
  // Double destruction is flagged, not silently absorbed.
  EXPECT_TRUE(store_->DestroyKey("r-1").IsKeyDestroyed());
}

TEST_F(KeyStoreTest, DestroyedKeyCannotBeRecreated) {
  // A destroyed record id must never silently get a fresh key (which
  // would hide the shredding from later readers).
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->DestroyKey("r-1").ok());
  EXPECT_TRUE(store_->CreateKey("r-1").IsAlreadyExists());
}

TEST_F(KeyStoreTest, PersistsAcrossReopen) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->CreateKey("r-2").ok());
  std::string key1 = *store_->GetKey("r-1");
  ASSERT_TRUE(store_->Persist().ok());
  store_.reset();

  OpenStore();
  EXPECT_EQ(*store_->GetKey("r-1"), key1);
  EXPECT_EQ(store_->LiveKeyCount(), 2u);
}

TEST_F(KeyStoreTest, ReopenReadsKeyLogOnce) {
  // Format detection reads only the magic record's bytes; the replay is
  // the one full read of a v2 keys.db.
  OpenStore();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store_->CreateKey("r-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store_->Persist().ok());
  store_.reset();
  uint64_t file_size = 0;
  ASSERT_TRUE(env_.GetFileSize("keys.db", &file_size).ok());

  storage::InstrumentedEnv counted(&env_);
  KeyStore reopened(&counted, "keys.db", std::string(32, 'M'), "drbg-seed");
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.LiveKeyCount(), 50u);
  const uint64_t read_bytes = counted.stats()->TakeSnapshot().read_bytes;
  EXPECT_GE(read_bytes, file_size);
  EXPECT_LT(read_bytes, file_size + 64) << "keys.db is " << file_size << " B";
}

TEST_F(KeyStoreTest, DestructionSurvivesReopen) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->CreateKey("r-2").ok());
  ASSERT_TRUE(store_->DestroyKey("r-1").ok());  // persists immediately
  ASSERT_TRUE(store_->Persist().ok());
  store_.reset();

  OpenStore();
  EXPECT_TRUE(store_->GetKey("r-1").status().IsKeyDestroyed());
  EXPECT_TRUE(store_->GetKey("r-2").ok());
}

TEST_F(KeyStoreTest, ShreddedKeyBytesAbsentFromDisk) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  std::string key = *store_->GetKey("r-1");
  ASSERT_TRUE(store_->Persist().ok());
  ASSERT_TRUE(store_->DestroyKey("r-1").ok());

  // Neither the raw key nor any trace of its wrapped blob may remain.
  std::string contents;
  ASSERT_TRUE(storage::ReadFileToString(&env_, "keys.db", &contents).ok());
  EXPECT_EQ(contents.find(key), std::string::npos);
}

TEST_F(KeyStoreTest, WrongMasterKeyFailsOpen) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->Persist().ok());
  store_.reset();

  auto bad = std::make_unique<KeyStore>(&env_, "keys.db",
                                        std::string(32, 'X'), "drbg-seed");
  EXPECT_TRUE(bad->Open().IsTamperDetected());
}

TEST_F(KeyStoreTest, MasterKeyRotationPreservesDataKeys) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  std::string key = *store_->GetKey("r-1");
  std::string new_master(32, 'N');
  ASSERT_TRUE(store_->RotateMasterKey(new_master).ok());
  EXPECT_EQ(*store_->GetKey("r-1"), key);
  store_.reset();

  // Old master no longer opens; new one does and finds the same key.
  auto old_store = std::make_unique<KeyStore>(
      &env_, "keys.db", std::string(32, 'M'), "drbg-seed");
  EXPECT_FALSE(old_store->Open().ok());

  OpenStore(new_master);
  EXPECT_EQ(*store_->GetKey("r-1"), key);
}

TEST_F(KeyStoreTest, TamperedKeyLogDetected) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->Persist().ok());
  store_.reset();

  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("keys.db", &size).ok());
  ASSERT_TRUE(env_.UnsafeOverwrite("keys.db", size / 2, "Z").ok());

  auto tampered = std::make_unique<KeyStore>(
      &env_, "keys.db", std::string(32, 'M'), "drbg-seed");
  EXPECT_FALSE(tampered->Open().ok());
}

TEST_F(KeyStoreTest, TornFinalEntryToleratedOnReopen) {
  OpenStore();
  ASSERT_TRUE(store_->CreateKey("r-1").ok());
  ASSERT_TRUE(store_->CreateKey("r-2").ok());
  store_.reset();

  // Tear into the final (r-2) entry, as a power failure mid-append
  // would. Reopen must succeed with r-1 intact and r-2 gone — and the
  // id must be reusable, not burned.
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("keys.db", &size).ok());
  ASSERT_TRUE(env_.UnsafeTruncate("keys.db", size - 4).ok());

  OpenStore();
  EXPECT_TRUE(store_->GetKey("r-1").ok());
  EXPECT_TRUE(store_->GetKey("r-2").status().IsNotFound());
  EXPECT_EQ(store_->LiveKeyCount(), 1u);
  EXPECT_TRUE(store_->CreateKey("r-2").ok());
}

TEST_F(KeyStoreTest, TornMagicRecordRecoversToEmptyStore) {
  // Crash during the very first write of a fresh store can leave only a
  // prefix of the v2 magic record. That prefix must be recognized as a
  // (torn) v2 log — not misparsed as v1 garbage — and recovered.
  OpenStore();
  store_.reset();
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("keys.db", &size).ok());
  ASSERT_GT(size, 3u);
  ASSERT_TRUE(env_.UnsafeTruncate("keys.db", size - 3).ok());

  OpenStore();
  EXPECT_EQ(store_->LiveKeyCount(), 0u);
  EXPECT_TRUE(store_->CreateKey("r-1").ok());
}

class KeyStoreV1Test : public KeyStoreTest {
 protected:
  // Builds a raw v1 entry exactly as the previous format wrote it:
  // kind(1) | lp(record_id) | lp(wrap(data_key)).
  std::string V1LiveEntry(const std::string& record_id,
                          const std::string& data_key) {
    crypto::Aead master_aead;
    EXPECT_TRUE(master_aead.Init(std::string(32, 'M')).ok());
    std::string nonce =
        crypto::Sha256Digest("medvault-wrap-nonce:" + record_id)
            .substr(0, crypto::kCtrNonceSize);
    auto blob = master_aead.Seal(nonce, data_key, record_id);
    EXPECT_TRUE(blob.ok());
    std::string entry;
    entry.push_back(static_cast<char>(1));  // kEntryLive
    PutLengthPrefixed(&entry, record_id);
    PutLengthPrefixed(&entry, *blob);
    return entry;
  }
};

TEST_F(KeyStoreV1Test, V1LogUpgradesToV2OnOpen) {
  std::string data_key(32, 'K');
  std::string v1 = V1LiveEntry("r-1", data_key);
  ASSERT_TRUE(storage::WriteStringToFile(&env_, v1, "keys.db", true).ok());

  OpenStore();
  ASSERT_TRUE(store_->GetKey("r-1").ok());
  EXPECT_EQ(*store_->GetKey("r-1"), data_key);
  store_.reset();

  // The upgrade rewrote the log in the framed v2 format.
  std::string contents;
  ASSERT_TRUE(storage::ReadFileToString(&env_, "keys.db", &contents).ok());
  EXPECT_NE(contents.find("medvault-keylog-v2"), std::string::npos);

  OpenStore();
  EXPECT_EQ(*store_->GetKey("r-1"), data_key);
}

TEST_F(KeyStoreV1Test, V1TornTailTolerated) {
  std::string data_key(32, 'K');
  std::string v1 = V1LiveEntry("r-1", data_key);
  // A torn second entry: valid kind byte, then a length prefix whose
  // bytes never arrived.
  v1.push_back(static_cast<char>(1));
  v1 += "\x10" "abc";
  ASSERT_TRUE(storage::WriteStringToFile(&env_, v1, "keys.db", true).ok());

  OpenStore();
  EXPECT_EQ(*store_->GetKey("r-1"), data_key);
  EXPECT_EQ(store_->LiveKeyCount(), 1u);
}

TEST_F(KeyStoreV1Test, V1GarbageKindByteIsCorruption) {
  std::string v1 = V1LiveEntry("r-1", std::string(32, 'K'));
  v1.push_back(static_cast<char>(0x7f));  // neither live nor destroyed
  v1 += "garbage";
  ASSERT_TRUE(storage::WriteStringToFile(&env_, v1, "keys.db", true).ok());

  store_ = std::make_unique<KeyStore>(&env_, "keys.db", std::string(32, 'M'),
                                      "drbg-seed");
  EXPECT_TRUE(store_->Open().IsCorruption());
}

TEST_F(KeyStoreTest, FailedCreateDoesNotBurnRecordId) {
  // Regression: a CreateKey whose log append failed used to leave a
  // partial entry in the file while telling the caller it failed —
  // reopening then reported AlreadyExists for an id the caller believes
  // is free. (Create-time syncs are deferred to the vault's sync wave
  // now, so the append is the only failure point left inside CreateKey.)
  storage::FaultInjectionEnv fault(&env_);
  store_ = std::make_unique<KeyStore>(&fault, "keys.db", std::string(32, 'M'),
                                      "drbg-seed");
  ASSERT_TRUE(store_->Open().ok());

  fault.FailNextWrites(1);
  ASSERT_FALSE(store_->CreateKey("r-1").ok());
  EXPECT_TRUE(store_->GetKey("r-1").status().IsNotFound());
  // Same session: the id is immediately reusable.
  EXPECT_TRUE(store_->CreateKey("r-1").ok());
  store_.reset();

  // And after reopening from disk, a fresh create of the *failed* id
  // must succeed too (the log was rewritten without the dead entry).
  storage::MemEnv env2;
  storage::FaultInjectionEnv fault2(&env2);
  auto store2 = std::make_unique<KeyStore>(&fault2, "keys.db",
                                           std::string(32, 'M'), "drbg-seed");
  ASSERT_TRUE(store2->Open().ok());
  fault2.FailNextWrites(1);
  ASSERT_FALSE(store2->CreateKey("r-9").ok());
  store2.reset();

  auto reopened = std::make_unique<KeyStore>(&env2, "keys.db",
                                             std::string(32, 'M'), "drbg-seed");
  ASSERT_TRUE(reopened->Open().ok());
  EXPECT_TRUE(reopened->GetKey("r-9").status().IsNotFound());
  EXPECT_TRUE(reopened->CreateKey("r-9").ok());
}

TEST_F(KeyStoreTest, RequiresOpenBeforeUse) {
  store_ = std::make_unique<KeyStore>(&env_, "keys.db",
                                      std::string(32, 'M'), "seed");
  EXPECT_TRUE(store_->CreateKey("r-1").IsFailedPrecondition());
  EXPECT_TRUE(store_->Persist().IsFailedPrecondition());
}

}  // namespace
}  // namespace medvault::core
