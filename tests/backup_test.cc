// Backup/restore tests: off-site copies, signed manifests, verification,
// restore-and-reopen, disaster and tamper scenarios.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hex.h"
#include "core/backup.h"
#include "core/scrub.h"
#include "core/vault.h"
#include "crypto/sha256.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

/// Path -> hex SHA-256 of every file under `dir`, recursively.
void HashTree(storage::MemEnv* env, const std::string& dir,
              std::map<std::string, std::string>* out) {
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir, &children).ok());
  for (const std::string& name : children) {
    const std::string path = dir + "/" + name;
    if (!env->FileExists(path)) {
      HashTree(env, path, out);
      continue;
    }
    std::string bytes;
    ASSERT_TRUE(storage::ReadFileToString(env, path, &bytes).ok());
    (*out)[path] = HexEncode(crypto::Sha256Digest(bytes));
  }
}

/// MemEnv that serves one file with a flipped byte from its second
/// open on: the first read of it (a verify pass) sees the true bytes,
/// every later read sees rot.
class FlipOnReopenEnv : public storage::MemEnv {
 public:
  explicit FlipOnReopenEnv(std::string victim) : victim_(std::move(victim)) {}

  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<storage::SequentialFile>* file) override {
    MaybeFlip(fname);
    return MemEnv::NewSequentialFile(fname, file);
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<storage::RandomAccessFile>* file) override {
    MaybeFlip(fname);
    return MemEnv::NewRandomAccessFile(fname, file);
  }

 private:
  void MaybeFlip(const std::string& fname) {
    if (fname != victim_ || ++opens_ != 2) return;
    uint64_t size = 0;
    ASSERT_TRUE(GetFileSize(fname, &size).ok());
    ASSERT_GT(size, 0u);
    std::unique_ptr<storage::RandomAccessFile> file;
    ASSERT_TRUE(MemEnv::NewRandomAccessFile(fname, &file).ok());
    std::string byte;
    ASSERT_TRUE(file->Read(size / 2, 1, &byte).ok());
    ASSERT_TRUE(
        UnsafeOverwrite(fname, size / 2, std::string(1, byte[0] ^ 0x20)).ok());
  }

  std::string victim_;
  int opens_ = 0;
};

class BackupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vault_ = OpenVault(&env_, "vault");
    ASSERT_TRUE(
        vault_->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"pat-p", Role::kPatient, "P"})
                    .ok());
    ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-a", "pat-p").ok());
  }

  std::unique_ptr<Vault> OpenVault(storage::Env* env,
                                   const std::string& dir) {
    VaultOptions options;
    options.env = env;
    options.dir = dir;
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "backup-test-entropy";
    options.signer_height = 4;
    auto vault = Vault::Open(options);
    EXPECT_TRUE(vault.ok()) << vault.status().ToString();
    return std::move(vault).value();
  }

  RecordId CreateSample(const std::string& content) {
    auto id = vault_->CreateRecord("dr-a", "pat-p", "text/plain", content,
                                   {"backup"}, "osha-30y");
    EXPECT_TRUE(id.ok());
    return id.ValueOr("");
  }

  storage::MemEnv env_;      // primary site
  storage::MemEnv offsite_;  // off-site facility
  ManualClock clock_{1000000};
  std::unique_ptr<Vault> vault_;
};

TEST_F(BackupTest, BackupProducesSignedManifest) {
  CreateSample("important record");
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_GT(manifest->files.size(), 3u);
  EXPECT_TRUE(BackupManager::VerifyManifestSignature(
                  *manifest, vault_->SignerPublicKey(),
                  vault_->SignerPublicSeed(), vault_->SignerHeight())
                  .ok());
  EXPECT_TRUE(
      BackupManager::Verify(&offsite_, "offsite", *manifest).ok());
}

TEST_F(BackupTest, BackupRequiresPermission) {
  EXPECT_TRUE(
      BackupManager::Backup(vault_.get(), "dr-a", &offsite_, "offsite")
          .status()
          .IsPermissionDenied());
}

TEST_F(BackupTest, ManifestPersistsOffsiteAndReloads) {
  CreateSample("x");
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  auto loaded = BackupManager::LoadManifest(&offsite_, "offsite");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->backup_id, manifest->backup_id);
  EXPECT_EQ(loaded->files, manifest->files);
  EXPECT_TRUE(BackupManager::VerifyManifestSignature(
                  *loaded, vault_->SignerPublicKey(),
                  vault_->SignerPublicSeed(), vault_->SignerHeight())
                  .ok());
}

TEST_F(BackupTest, VerifyDetectsOffsiteTamper) {
  CreateSample("y");
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  // Tamper with one backed-up file.
  const std::string victim = "offsite/" + manifest->files[1].first;
  uint64_t size = 0;
  ASSERT_TRUE(offsite_.GetFileSize(victim, &size).ok());
  ASSERT_TRUE(offsite_.UnsafeOverwrite(victim, size / 2, "X").ok());
  EXPECT_TRUE(BackupManager::Verify(&offsite_, "offsite", *manifest)
                  .IsTamperDetected());
}

TEST_F(BackupTest, VerifyDetectsMissingFile) {
  CreateSample("z");
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(
      offsite_.RemoveFile("offsite/" + manifest->files[0].first).ok());
  EXPECT_TRUE(BackupManager::Verify(&offsite_, "offsite", *manifest)
                  .IsTamperDetected());
}

TEST_F(BackupTest, DisasterRecoveryRestoresWorkingVault) {
  RecordId r1 = CreateSample("survives the fire");
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", r1, "v2 content", "fix", {}).ok());
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  vault_.reset();

  // "Fire": the primary site is lost entirely. Restore to a new site.
  storage::MemEnv new_site;
  ASSERT_TRUE(BackupManager::Restore(&offsite_, "offsite", *manifest,
                                     &new_site, "vault")
                  .ok());
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_EQ(restored->ReadRecord("dr-a", r1)->plaintext, "v2 content");
  EXPECT_TRUE(restored->VerifyEverything().ok());
  // Search works after restore too.
  auto hits = restored->SearchKeyword("dr-a", "backup");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(BackupTest, RestoreRefusesTamperedBackup) {
  CreateSample("w");
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  const std::string victim = "offsite/" + manifest->files[1].first;
  uint64_t size = 0;
  ASSERT_TRUE(offsite_.GetFileSize(victim, &size).ok());
  ASSERT_TRUE(offsite_.UnsafeOverwrite(victim, size / 2, "X").ok());

  storage::MemEnv new_site;
  EXPECT_TRUE(BackupManager::Restore(&offsite_, "offsite", *manifest,
                                     &new_site, "vault")
                  .IsTamperDetected());
}

TEST_F(BackupTest, BackupIsAudited) {
  CreateSample("v");
  ASSERT_TRUE(
      vault_->RegisterPrincipal("admin-r", {"aud-x", Role::kAuditor, "X"})
          .ok());
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok());
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  bool found = false;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kBackup &&
        e.details.find(manifest->backup_id) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(BackupTest, IncrementalStyleSecondBackupSupersedes) {
  RecordId r1 = CreateSample("first state");
  auto m1 =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(m1.ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", r1, "second state", "update", {}).ok());
  auto m2 = BackupManager::Backup(vault_.get(), "admin-r", &offsite_,
                                  "offsite2");
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(m1->backup_id, m2->backup_id);

  storage::MemEnv new_site;
  ASSERT_TRUE(BackupManager::Restore(&offsite_, "offsite2", *m2, &new_site,
                                     "vault")
                  .ok());
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_EQ(restored->ReadRecord("dr-a", r1)->plaintext, "second state");
}

TEST_F(BackupTest, IncrementalBackupCopiesOnlyChanges) {
  RecordId r1 = CreateSample("base content");
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok());

  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", r1, "changed content", "fix", {}).ok());
  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                               &offsite_, "incr",
                                               {{"full", *full}});
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_EQ(incr->base_backup_id, full->backup_id);
  // Strictly fewer files than the full backup (unchanged ones skipped).
  EXPECT_LT(incr->files.size(), full->files.size());
  EXPECT_GT(incr->files.size(), 0u);
  EXPECT_TRUE(BackupManager::Verify(&offsite_, "incr", *incr).ok());

  // Restore the chain on fresh hardware.
  storage::MemEnv new_site;
  ASSERT_TRUE(BackupManager::RestoreChain(
                  &offsite_, {{"full", *full}, {"incr", *incr}}, &new_site,
                  "vault")
                  .ok());
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_EQ(restored->ReadRecord("dr-a", r1)->plaintext,
            "changed content");
  EXPECT_TRUE(restored->VerifyEverything().ok());
}

TEST_F(BackupTest, RestoreChainValidatesLinkage) {
  CreateSample("x");
  auto full1 =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "f1");
  clock_.Advance(kMicrosPerDay);
  auto full2 =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "f2");
  ASSERT_TRUE(full1.ok());
  ASSERT_TRUE(full2.ok());

  storage::MemEnv new_site;
  // Chain must start with a full backup... (broken linkage is the
  // distinct kBackupChainBroken verdict, not a generic argument error:
  // the caller must know the chain itself is unusable)
  BackupManifest fake_incr = *full2;
  fake_incr.base_backup_id = "bk-nonexistent";
  EXPECT_TRUE(BackupManager::RestoreChain(&offsite_, {{"f2", fake_incr}},
                                          &new_site, "vault")
                  .IsBackupChainBroken());
  // ...and each link must name its predecessor.
  EXPECT_TRUE(BackupManager::RestoreChain(
                  &offsite_, {{"f1", *full1}, {"f2", fake_incr}}, &new_site,
                  "vault")
                  .IsBackupChainBroken());
  EXPECT_TRUE(BackupManager::RestoreChain(&offsite_, {}, &new_site, "vault")
                  .IsInvalidArgument());
}

TEST_F(BackupTest, TruncatedFinalManifestBreaksTheChain) {
  // A manifest cut off mid-file (torn copy to the offsite mount, a
  // partially synced link) must read as "this chain is unusable" —
  // kBackupChainBroken from LoadChain — not as a per-file tamper
  // verdict or a raw parse error leaking to the operator.
  RecordId r1 = CreateSample("base content");
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", r1, "changed content", "fix", {}).ok());
  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                               &offsite_, "incr",
                                               {{"full", *full}});
  ASSERT_TRUE(incr.ok());

  // Truncate the FINAL link's manifest mid-file: the newest state is
  // exactly what a restore would be reaching for.
  uint64_t size = 0;
  ASSERT_TRUE(offsite_.GetFileSize("incr/MANIFEST", &size).ok());
  ASSERT_GT(size, 2u);
  ASSERT_TRUE(offsite_.UnsafeTruncate("incr/MANIFEST", size / 2).ok());

  auto chain = BackupManager::LoadChain(&offsite_, {"full", "incr"});
  ASSERT_FALSE(chain.ok());
  EXPECT_TRUE(chain.status().IsBackupChainBroken())
      << chain.status().ToString();
  EXPECT_NE(chain.status().ToString().find("incr"), std::string::npos)
      << "the verdict must name the broken link: "
      << chain.status().ToString();

  // The intact prefix is still a loadable, usable chain on its own.
  auto prefix = BackupManager::LoadChain(&offsite_, {"full"});
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  storage::MemEnv new_site;
  ASSERT_TRUE(
      BackupManager::RestoreChain(&offsite_, *prefix, &new_site, "vault")
          .ok());
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_EQ(restored->ReadRecord("dr-a", r1)->plaintext, "base content");
}

TEST_F(BackupTest, IncrementalChainHonorsDeletedFiles) {
  // Create enough disposed records to reclaim a sealed segment between
  // the full and the incremental backup: the restored vault must NOT
  // resurrect the reclaimed segment file.
  RecordId doomed = CreateSample(std::string(256, 'd'));
  RecordId keeper = CreateSample(std::string(256, 'k'));
  ASSERT_TRUE(vault_->versions()->segments()->SealActive().ok());
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok());

  clock_.AdvanceYears(31);
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", doomed).ok());
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", keeper).ok());
  ASSERT_GT(*vault_->ReclaimDisposedMedia("admin-r"), 0);

  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                               &offsite_, "incr",
                                               {{"full", *full}});
  ASSERT_TRUE(incr.ok());
  EXPECT_FALSE(incr->deleted.empty());

  storage::MemEnv new_site;
  ASSERT_TRUE(BackupManager::RestoreChain(
                  &offsite_, {{"full", *full}, {"incr", *incr}}, &new_site,
                  "vault")
                  .ok());
  for (const std::string& rel : incr->deleted) {
    EXPECT_FALSE(new_site.FileExists("vault/" + rel)) << rel;
  }
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_TRUE(
      restored->ReadRecord("dr-a", doomed).status().IsKeyDestroyed());
  EXPECT_TRUE(restored->VerifyEverything().ok());
}

TEST_F(BackupTest, SecondIncrementalRecordsDeletionsSinceTheFullBackup) {
  // full -> incr1 -> reclaim a segment -> incr2. The reclaimed segment
  // is listed only by the full backup, so incr2 must diff against the
  // chain's effective state to record it as deleted; otherwise the
  // restore brings it back from the full backup.
  RecordId doomed = CreateSample(std::string(256, 'd'));
  RecordId also_doomed = CreateSample(std::string(256, 'k'));
  ASSERT_TRUE(vault_->versions()->segments()->SealActive().ok());
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  clock_.Advance(kMicrosPerDay);
  CreateSample("before the reclaim");
  auto incr1 = BackupManager::BackupIncremental(
      vault_.get(), "admin-r", &offsite_, "incr1", {{"full", *full}});
  ASSERT_TRUE(incr1.ok()) << incr1.status().ToString();
  EXPECT_TRUE(incr1->deleted.empty());

  clock_.AdvanceYears(31);
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", doomed).ok());
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", also_doomed).ok());
  ASSERT_GT(*vault_->ReclaimDisposedMedia("admin-r"), 0);
  ASSERT_FALSE(env_.FileExists("vault/segments/seg-00000001"));
  const BackupChain chain = {{"full", *full}, {"incr1", *incr1}};
  auto incr2 = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                                &offsite_, "incr2", chain);
  ASSERT_TRUE(incr2.ok()) << incr2.status().ToString();
  EXPECT_EQ(incr2->base_backup_id, incr1->backup_id);
  EXPECT_EQ(incr2->deleted,
            (std::vector<std::string>{"segments/seg-00000001"}));

  storage::MemEnv new_site;
  ASSERT_TRUE(BackupManager::RestoreChain(
                  &offsite_,
                  {{"full", *full}, {"incr1", *incr1}, {"incr2", *incr2}},
                  &new_site, "vault")
                  .ok());
  EXPECT_FALSE(new_site.FileExists("vault/segments/seg-00000001"));
  auto restored = OpenVault(&new_site, "vault");
  EXPECT_TRUE(
      restored->ReadRecord("dr-a", doomed).status().IsKeyDestroyed());
  EXPECT_TRUE(restored->VerifyEverything().ok());
}

TEST_F(BackupTest, BackupChainBytesArePinned) {
  // A full backup, a reclaimed segment, an incremental, a chain restore
  // and a repair of one flipped artifact: every byte each step writes
  // is pinned, as are the kBackup audit details.
  ASSERT_TRUE(
      vault_->RegisterPrincipal("admin-r", {"aud-x", Role::kAuditor, "X"})
          .ok());
  RecordId doomed = CreateSample(std::string(256, 'd'));
  RecordId also_doomed = CreateSample(std::string(256, 'k'));
  ASSERT_TRUE(vault_->versions()->segments()->SealActive().ok());
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  clock_.AdvanceYears(31);
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", doomed).ok());
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", also_doomed).ok());
  ASSERT_GT(*vault_->ReclaimDisposedMedia("admin-r"), 0);
  CreateSample("after the reclaim");
  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                               &offsite_, "incr",
                                               {{"full", *full}});
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  ASSERT_FALSE(incr->deleted.empty());

  std::vector<std::string> details;
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kBackup) details.push_back(e.details);
  }
  EXPECT_EQ(details, (std::vector<std::string>{
                         "bk-1000000 files=9",
                         "bk-978285601000000 incremental-of=bk-1000000 "
                         "changed=7 deleted=1",
                     }));

  std::map<std::string, std::string> offsite;
  HashTree(&offsite_, "full", &offsite);
  HashTree(&offsite_, "incr", &offsite);
  const std::map<std::string, std::string> kPinnedOffsite = {
      {"full/MANIFEST",
       "ab8ebcc06fb0d44d66a9d18b28cc5e4d5ab1dc101f3126f4306038b4d6ffca04"},
      {"full/audit.log",
       "59ccd43b80dcb5a8856278acb770d5f60b6498e23ee3f23e95bf31211a404080"},
      {"full/catalog.log",
       "2b827e4541368dc876e536cfd5b14f3c1509743cab10c0c2cffb6095b4a7f389"},
      {"full/index.log",
       "52439e71f799f2bad044a06cdaf410719ddb3370735616bc255386c20f23feda"},
      {"full/keys.db",
       "94abbd06cb85131e44a02aac61dde07465a9204df35bda268f2355cc01d87c8c"},
      {"full/provenance.log",
       "1d62c106694b1483204d12858f819e0cba7620bd9eabc211b6e038727ba2d708"},
      {"full/segments/seg-00000001",
       "cb644b1bf89cb318ccb734b85b54cd97972ea7b76b7c95cf5b4eb68b510d5bda"},
      {"full/segments/seg-00000002",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"full/signer.tree",
       "ae8b79b89f1ad517db18b71e99f18def3edce4cf8004c3afd34719edda6424ea"},
      {"full/state.log",
       "4344b8df1f7b964ef620c84370b56c12aa7e81405e73cf1bbbc585d06959d776"},
      {"incr/MANIFEST",
       "ef14dc02576630b5617d502147956d86a3bdf159ab6b8d2907177249cff9c2b2"},
      {"incr/audit.log",
       "70abc2ac1203ea9337fa75d0b42a087f745abb008ca93dbcdcfd0795b644559e"},
      {"incr/catalog.log",
       "9461e96c69afad3ac28641a8a1c0f6e64f5d021a6f60aa2dda60e61ac4fd30a9"},
      {"incr/index.log",
       "f5b47b6d643cb9f82dbfbfba088c2c218d507152a7358dd0999475e222b23c87"},
      {"incr/keys.db",
       "8d15fdc844e95773bee59d524af20aafd8df642c0482d377bae9edd8b65b2e3e"},
      {"incr/provenance.log",
       "a82264c47127242d27742d308ed53a3c52af4733bf9e6f7f8d52fe94fc529e39"},
      {"incr/segments/seg-00000002",
       "779f92ffbc7f5001c4698503386cf776ad0b9d51c5fb51d619e5afafbe2e8958"},
      {"incr/state.log",
       "84f7f46b43274767bcc2eed76124648512bb843a7fc3ac21298cf110fd27f26a"},
  };
  EXPECT_EQ(offsite, kPinnedOffsite);

  storage::MemEnv new_site;
  const std::vector<std::pair<std::string, BackupManifest>> chain = {
      {"full", *full}, {"incr", *incr}};
  ASSERT_TRUE(
      BackupManager::RestoreChain(&offsite_, chain, &new_site, "vault").ok());
  std::map<std::string, std::string> restored;
  HashTree(&new_site, "vault", &restored);
  const std::map<std::string, std::string> kPinnedRestore = {
      {"vault/audit.log",
       "70abc2ac1203ea9337fa75d0b42a087f745abb008ca93dbcdcfd0795b644559e"},
      {"vault/catalog.log",
       "9461e96c69afad3ac28641a8a1c0f6e64f5d021a6f60aa2dda60e61ac4fd30a9"},
      {"vault/index.log",
       "f5b47b6d643cb9f82dbfbfba088c2c218d507152a7358dd0999475e222b23c87"},
      {"vault/keys.db",
       "8d15fdc844e95773bee59d524af20aafd8df642c0482d377bae9edd8b65b2e3e"},
      {"vault/provenance.log",
       "a82264c47127242d27742d308ed53a3c52af4733bf9e6f7f8d52fe94fc529e39"},
      {"vault/segments/seg-00000002",
       "779f92ffbc7f5001c4698503386cf776ad0b9d51c5fb51d619e5afafbe2e8958"},
      {"vault/signer.tree",
       "ae8b79b89f1ad517db18b71e99f18def3edce4cf8004c3afd34719edda6424ea"},
      {"vault/state.log",
       "84f7f46b43274767bcc2eed76124648512bb843a7fc3ac21298cf110fd27f26a"},
  };
  EXPECT_EQ(restored, kPinnedRestore);

  // Flip one byte inside state.log's first record: the scrub flags it
  // and the repair puts back exactly the restored bytes.
  std::string byte;
  ASSERT_TRUE(storage::ReadFileToString(&new_site, "vault/state.log", &byte)
                  .ok());
  byte = std::string(1, static_cast<char>(byte[10] ^ 0x01));
  ASSERT_TRUE(new_site.UnsafeOverwrite("vault/state.log", 10, byte).ok());
  auto report = Scrubber::ScrubVaultDir(&new_site, "vault", 42);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->DamagedFiles(), std::vector<std::string>{"state.log"});
  auto summary =
      BackupManager::Repair(&offsite_, chain, &new_site, "vault", *report);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->restored, std::vector<std::string>{"state.log"});
  EXPECT_TRUE(summary->verified_clean);
  std::map<std::string, std::string> repaired;
  HashTree(&new_site, "vault", &repaired);
  EXPECT_EQ(repaired, kPinnedRestore);
}

TEST_F(BackupTest, OrphansAreNotBackedUp) {
  // A crash leftover is not part of the vault: the inventory is the
  // artifacts the scrub expects, so the manifest never names it.
  CreateSample("x");
  ASSERT_TRUE(
      storage::WriteStringToFile(&env_, "half", "vault/stale.tmp", false)
          .ok());
  auto manifest =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "offsite");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (const auto& [rel, hash] : manifest->files) {
    EXPECT_NE(rel, "stale.tmp");
  }
  EXPECT_FALSE(offsite_.FileExists("offsite/stale.tmp"));
}

TEST_F(BackupTest, RestoreOfALoneIncrementalIsAChainBreak) {
  RecordId r1 = CreateSample("base");
  auto full =
      BackupManager::Backup(vault_.get(), "admin-r", &offsite_, "full");
  ASSERT_TRUE(full.ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(vault_->CorrectRecord("dr-a", r1, "changed", "fix", {}).ok());
  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r",
                                               &offsite_, "incr",
                                               {{"full", *full}});
  ASSERT_TRUE(incr.ok());

  // The incremental alone is a partial vault: refused, not restored.
  storage::MemEnv new_site;
  EXPECT_TRUE(
      BackupManager::Restore(&offsite_, "incr", *incr, &new_site, "vault")
          .IsBackupChainBroken());
  EXPECT_FALSE(new_site.FileExists("vault/catalog.log"));
}

TEST_F(BackupTest, RestoreChecksTheBytesItCopies) {
  // The off-site copy of state.log rots after the verify pass read it:
  // the restore copy is hashed too, so the rot is refused rather than
  // installed, and the destination file is never written.
  FlipOnReopenEnv offsite("full/state.log");
  CreateSample("x");
  auto full = BackupManager::Backup(vault_.get(), "admin-r", &offsite, "full");
  ASSERT_TRUE(full.ok());

  storage::MemEnv new_site;
  EXPECT_TRUE(BackupManager::RestoreChain(&offsite, {{"full", *full}},
                                          &new_site, "vault")
                  .IsTamperDetected());
  EXPECT_FALSE(new_site.FileExists("vault/state.log"));
  EXPECT_FALSE(new_site.FileExists("vault/state.log.tmp"));
}

}  // namespace
}  // namespace medvault::core
