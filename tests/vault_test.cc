// Vault facade tests: full record lifecycle under access control, audit
// coverage of every operation, break-glass, disposal with certificates,
// search scoping, persistence, master-key rotation.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/vault.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class VaultTest : public ::testing::Test {
 protected:
  void SetUp() override { OpenVault(); }

  void OpenVault() {
    VaultOptions options;
    options.env = &env_;
    options.dir = "vault";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "vault-test-entropy";
    options.signer_height = 4;  // 16 signatures; cheap keygen for tests
    auto vault = Vault::Open(options);
    ASSERT_TRUE(vault.ok()) << vault.status().ToString();
    vault_ = std::move(vault).value();
  }

  void RegisterCast() {
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("boot",
                                        {"admin-r", Role::kAdmin, "Root"})
                    .ok());
    ASSERT_TRUE(
        vault_
            ->RegisterPrincipal("admin-r",
                                {"dr-a", Role::kPhysician, "Dr A"})
            .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"nurse-n", Role::kNurse, "Nurse"})
                    .ok());
    ASSERT_TRUE(
        vault_
            ->RegisterPrincipal("admin-r",
                                {"aud-x", Role::kAuditor, "Auditor"})
            .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"pat-p", Role::kPatient, "P"})
                    .ok());
    ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-a", "pat-p").ok());
  }

  Result<RecordId> CreateSample(const std::string& content = "note v1") {
    return vault_->CreateRecord("dr-a", "pat-p", "text/plain", content,
                                {"cancer", "oncology"}, "short-1y");
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  std::unique_ptr<Vault> vault_;
};

TEST_F(VaultTest, OpenValidatesOptions) {
  VaultOptions bad;
  EXPECT_FALSE(Vault::Open(bad).ok());
  bad.env = &env_;
  bad.clock = &clock_;
  bad.dir = "v2";
  bad.master_key = "short";
  bad.entropy = "e";
  EXPECT_TRUE(Vault::Open(bad).status().IsInvalidArgument());
  bad.master_key = std::string(32, 'M');
  bad.signer_height = 1;
  EXPECT_TRUE(Vault::Open(bad).status().IsInvalidArgument());
}

TEST_F(VaultTest, BootstrapThenAdminOnlyRegistration) {
  // First registrations are open (bootstrap)...
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("whoever",
                                      {"admin-r", Role::kAdmin, "Root"})
                  .ok());
  // ...after an admin exists, only admins may register.
  EXPECT_TRUE(vault_
                  ->RegisterPrincipal("whoever",
                                      {"x", Role::kClerk, "X"})
                  .IsNotFound());  // unknown actor
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"clerk-c", Role::kClerk, "C"})
                  .ok());
  EXPECT_TRUE(vault_
                  ->RegisterPrincipal("clerk-c",
                                      {"y", Role::kClerk, "Y"})
                  .IsPermissionDenied());
}

TEST_F(VaultTest, CreateReadCorrectLifecycle) {
  RegisterCast();
  auto id = CreateSample("initial note");
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto read = vault_->ReadRecord("dr-a", *id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->plaintext, "initial note");
  EXPECT_EQ(read->header.version, 1u);

  clock_.Advance(kMicrosPerDay);
  auto corrected = vault_->CorrectRecord("dr-a", *id, "corrected note",
                                         "wrong dosage", {"cancer"});
  ASSERT_TRUE(corrected.ok());
  EXPECT_EQ(corrected->version, 2u);

  EXPECT_EQ(vault_->ReadRecord("dr-a", *id)->plaintext, "corrected note");
  EXPECT_EQ(vault_->ReadRecordVersion("dr-a", *id, 1)->plaintext,
            "initial note");

  auto history = vault_->RecordHistory("dr-a", *id);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[1].reason, "wrong dosage");
}

TEST_F(VaultTest, CorrectionsRequireReason) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(vault_->CorrectRecord("dr-a", *id, "new", "", {})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(VaultTest, PatientReadsAndAmendsOwnRecord) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(vault_->ReadRecord("pat-p", *id).ok());
  EXPECT_TRUE(vault_
                  ->CorrectRecord("pat-p", *id, "my own correction",
                                  "patient amendment", {})
                  .ok());
}

TEST_F(VaultTest, UnauthorizedAccessDeniedAndAudited) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());

  // Nurse has no care relation with pat-p.
  EXPECT_TRUE(
      vault_->ReadRecord("nurse-n", *id).status().IsPermissionDenied());
  // Auditor cannot read clinical content.
  EXPECT_TRUE(
      vault_->ReadRecord("aud-x", *id).status().IsPermissionDenied());

  // Both denials are in the audit trail.
  auto trail = vault_->ReadAuditTrail("aud-x", *id);
  ASSERT_TRUE(trail.ok());
  int denials = 0;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kAccessDenied) denials++;
  }
  EXPECT_EQ(denials, 2);
}

TEST_F(VaultTest, EveryOperationIsAudited) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-a", *id).ok());
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", *id, "v2", "fix", {"cancer"}).ok());
  ASSERT_TRUE(vault_->SearchKeyword("dr-a", "cancer").ok());

  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  bool saw_create = false, saw_read = false, saw_correct = false,
       saw_search = false, saw_policy = false;
  for (const AuditEvent& e : *trail) {
    switch (e.action) {
      case AuditAction::kCreate: saw_create = true; break;
      case AuditAction::kRead: saw_read = true; break;
      case AuditAction::kCorrect: saw_correct = true; break;
      case AuditAction::kSearch: saw_search = true; break;
      case AuditAction::kPolicyChange: saw_policy = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_correct);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_policy);  // principal registrations
}

TEST_F(VaultTest, SearchTermNeverAppearsInAuditLog) {
  RegisterCast();
  ASSERT_TRUE(CreateSample().ok());
  ASSERT_TRUE(vault_->SearchKeyword("dr-a", "cancer").ok());
  std::string raw;
  ASSERT_TRUE(
      storage::ReadFileToString(&env_, "vault/audit.log", &raw).ok());
  EXPECT_EQ(raw.find("cancer"), std::string::npos);
}

TEST_F(VaultTest, SearchScopedToAccessibleRecords) {
  RegisterCast();
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"pat-q", Role::kPatient, "Q"})
                  .ok());
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-b", "pat-q").ok());

  // dr-a's patient and dr-b's patient both have cancer records.
  ASSERT_TRUE(CreateSample().ok());
  ASSERT_TRUE(vault_
                  ->CreateRecord("dr-b", "pat-q", "text/plain", "note q",
                                 {"cancer"}, "short-1y")
                  .ok());

  auto hits_a = vault_->SearchKeyword("dr-a", "cancer");
  ASSERT_TRUE(hits_a.ok());
  EXPECT_EQ(hits_a->size(), 1u);  // only their own patient's record

  auto hits_b = vault_->SearchKeyword("dr-b", "cancer");
  ASSERT_TRUE(hits_b.ok());
  EXPECT_EQ(hits_b->size(), 1u);
  EXPECT_NE((*hits_a)[0], (*hits_b)[0]);
}

TEST_F(VaultTest, BreakGlassGrantsAccessAndIsAudited) {
  RegisterCast();
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"pat-q", Role::kPatient, "Q"})
                  .ok());
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-b", "pat-q").ok());
  auto id = vault_->CreateRecord("dr-b", "pat-q", "text/plain",
                                 "emergency info", {}, "short-1y");
  ASSERT_TRUE(id.ok());

  EXPECT_TRUE(
      vault_->ReadRecord("dr-a", *id).status().IsPermissionDenied());
  auto grant = vault_->BreakGlass("dr-a", "pat-q",
                                  "patient unconscious in ER",
                                  3600 * kMicrosPerSecond);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(vault_->ReadRecord("dr-a", *id)->plaintext, "emergency info");

  // Expiry re-locks.
  clock_.Advance(2 * 3600 * kMicrosPerSecond);
  EXPECT_TRUE(
      vault_->ReadRecord("dr-a", *id).status().IsPermissionDenied());

  // Audited with justification.
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  bool found = false;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kBreakGlass &&
        e.details.find("unconscious") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(VaultTest, DisposalBlockedDuringRetention) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(vault_->DisposeRecord("admin-r", *id)
                  .status()
                  .IsRetentionViolation());
  // Record still readable.
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).ok());
}

TEST_F(VaultTest, DisposalAfterRetentionShredsAndCertifies) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  clock_.AdvanceYears(2);  // past short-1y

  auto cert = vault_->DisposeRecord("admin-r", *id);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_EQ(cert->record_id, *id);
  EXPECT_TRUE(RetentionManager::VerifyCertificate(
                  *cert, vault_->SignerPublicKey(),
                  vault_->SignerPublicSeed(), vault_->SignerHeight())
                  .ok());

  // Content is gone (key destroyed), searches no longer return it.
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).status().IsKeyDestroyed());
  auto hits = vault_->SearchKeyword("dr-a", "cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  // Disposal is idempotent-hostile.
  EXPECT_FALSE(vault_->DisposeRecord("admin-r", *id).ok());
  // But integrity of remaining state still verifies.
  EXPECT_TRUE(vault_->VerifyEverything().ok());
  // Custody chain ends with a disposed event.
  auto chain = vault_->GetCustodyChain("aud-x", *id);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->back().type, CustodyEventType::kDisposed);
}

// Read audit details are part of the stored trail (and of its size per
// user byte), so both read entry points must keep writing exactly
// these strings.
TEST_F(VaultTest, ReadAuditDetailsArePinned) {
  RegisterCast();
  ASSERT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-a", *id).ok());
  ASSERT_TRUE(vault_->ReadRecordVersion("dr-a", *id, 1).ok());
  EXPECT_TRUE(vault_->ReadRecordVersion("dr-a", *id, 9).status().IsNotFound());
  auto grant = vault_->BreakGlass("dr-b", "pat-p", "covering shift",
                                  3600 * kMicrosPerSecond);
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-b", *id).ok());
  ASSERT_TRUE(vault_->ReadRecordVersion("dr-b", *id, 1).ok());
  clock_.AdvanceYears(2);  // past short-1y
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", *id).ok());
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).status().IsKeyDestroyed());
  EXPECT_TRUE(
      vault_->ReadRecordVersion("dr-a", *id, 1).status().IsKeyDestroyed());

  auto trail = vault_->ReadAuditTrail("aud-x", *id);
  ASSERT_TRUE(trail.ok());
  std::vector<std::string> reads;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kRead) reads.push_back(e.details);
  }
  const std::string via = " via=break-glass grant=" + *grant;
  const std::vector<std::string> want = {
      "ok",
      "v1 ok",
      "v9 NotFound: no such version",
      "ok" + via,
      "v1 ok" + via,
      "disposed",
      "disposed",
  };
  EXPECT_EQ(reads, want);
}

TEST_F(VaultTest, OnlyAdminDisposes) {
  RegisterCast();
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  clock_.AdvanceYears(2);
  EXPECT_TRUE(
      vault_->DisposeRecord("dr-a", *id).status().IsPermissionDenied());
}

TEST_F(VaultTest, UnknownRetentionPolicyRejected) {
  RegisterCast();
  auto id = vault_->CreateRecord("dr-a", "pat-p", "text/plain", "x", {},
                                 "no-such-policy");
  EXPECT_TRUE(id.status().IsNotFound());
}

TEST_F(VaultTest, AuditCheckpointAndVerification) {
  RegisterCast();
  ASSERT_TRUE(CreateSample().ok());
  auto cp = vault_->CheckpointAudit();
  ASSERT_TRUE(cp.ok());
  EXPECT_TRUE(vault_->VerifyAudit().ok());
  ASSERT_TRUE(CreateSample().ok());
  EXPECT_TRUE(vault_->VerifyAuditAgainstTrusted(*cp).ok());
}

TEST_F(VaultTest, InsiderTamperOfSegmentsDetected) {
  RegisterCast();
  auto id = CreateSample(std::string(500, 'z'));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(vault_->VerifyEverything().ok());

  auto ids = vault_->versions()->segments()->SegmentIds();
  std::string file =
      vault_->versions()->segments()->SegmentFileName(ids.front());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(file, &size).ok());
  ASSERT_TRUE(env_.UnsafeOverwrite(file, size / 2, "!").ok());

  EXPECT_TRUE(vault_->VerifyRecord(*id).IsTamperDetected());
  EXPECT_TRUE(vault_->VerifyEverything().IsTamperDetected());
}

TEST_F(VaultTest, InsiderTamperOfAuditLogDetected) {
  RegisterCast();
  ASSERT_TRUE(CreateSample().ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("vault/audit.log", &size).ok());
  ASSERT_TRUE(env_.UnsafeOverwrite("vault/audit.log", size / 2, "!").ok());
  EXPECT_TRUE(vault_->VerifyAudit().IsTamperDetected());
}

TEST_F(VaultTest, StateSurvivesReopen) {
  RegisterCast();
  auto id = CreateSample("persistent note");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", *id, "v2", "fix", {"cancer"}).ok());
  ASSERT_TRUE(vault_->CheckpointAudit().ok());
  std::string root = vault_->ContentRoot();
  uint64_t audit_size = vault_->audit()->size();
  vault_.reset();

  OpenVault();
  // Principals, care relations, records, audit all restored.
  EXPECT_EQ(vault_->ReadRecord("dr-a", *id)->plaintext, "v2");
  EXPECT_EQ(vault_->ContentRoot(), root);
  EXPECT_GE(vault_->audit()->size(), audit_size);
  EXPECT_TRUE(vault_->VerifyEverything().ok());

  // Record ids do not collide with pre-reopen ones.
  auto id2 = CreateSample("after reopen");
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id2, *id);
}

TEST_F(VaultTest, SignerStateSurvivesReopen) {
  RegisterCast();
  ASSERT_TRUE(CreateSample().ok());
  auto cp1 = vault_->CheckpointAudit();
  ASSERT_TRUE(cp1.ok());
  uint64_t used = vault_->signer()->SignaturesUsed();
  vault_.reset();

  OpenVault();
  // Reopened signer must not reuse consumed one-time leaves.
  EXPECT_GE(vault_->signer()->SignaturesUsed(), used);
  auto cp2 = vault_->CheckpointAudit();
  ASSERT_TRUE(cp2.ok());
  EXPECT_TRUE(vault_->VerifyAudit().ok());
}

TEST_F(VaultTest, MasterKeyRotationKeepsEverythingReadable) {
  RegisterCast();
  auto id = CreateSample("rotate around me");
  ASSERT_TRUE(id.ok());
  std::string new_master(32, 'N');
  ASSERT_TRUE(vault_->RotateMasterKey("admin-r", new_master).ok());
  EXPECT_EQ(vault_->ReadRecord("dr-a", *id)->plaintext, "rotate around me");
  vault_.reset();

  // Reopen requires the new master key.
  VaultOptions options;
  options.env = &env_;
  options.dir = "vault";
  options.clock = &clock_;
  options.master_key = new_master;
  options.entropy = "vault-test-entropy";
  options.signer_height = 4;
  auto reopened = Vault::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->ReadRecord("dr-a", *id)->plaintext,
            "rotate around me");
  // Search (blinded with entropy-derived key) still works.
  auto hits = (*reopened)->SearchKeyword("dr-a", "cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

// ---- Two-person disposal ---------------------------------------------------

class DualDisposalTest : public VaultTest {
 protected:
  void SetUp() override {
    VaultOptions options;
    options.env = &env_;
    options.dir = "vault-dual";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "dual-disposal-entropy";
    options.signer_height = 4;
    options.require_dual_disposal = true;
    auto vault = Vault::Open(options);
    ASSERT_TRUE(vault.ok());
    vault_ = std::move(vault).value();

    RegisterCast();
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"admin-s", Role::kAdmin, "Second"})
                    .ok());
  }
};

TEST_F(DualDisposalTest, SingleAdminPathIsDisabled) {
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  clock_.AdvanceYears(2);
  EXPECT_TRUE(
      vault_->DisposeRecord("admin-r", *id).status().IsFailedPrecondition());
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).ok());
}

TEST_F(DualDisposalTest, RequestPlusApprovalDisposes) {
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  clock_.AdvanceYears(2);

  auto request = vault_->RequestDisposal("admin-r", *id);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  // Record still intact until approval.
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).ok());

  auto cert = vault_->ApproveDisposal("admin-s", *request);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_EQ(cert->authorizer, "admin-r+admin-s");
  EXPECT_TRUE(RetentionManager::VerifyCertificate(
                  *cert, vault_->SignerPublicKey(),
                  vault_->SignerPublicSeed(), vault_->SignerHeight())
                  .ok());
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).status().IsKeyDestroyed());
  // A request is single-use.
  EXPECT_TRUE(vault_->ApproveDisposal("admin-s", *request)
                  .status()
                  .IsNotFound());
}

TEST_F(DualDisposalTest, SelfApprovalRefusedAndAudited) {
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  clock_.AdvanceYears(2);
  auto request = vault_->RequestDisposal("admin-r", *id);
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(vault_->ApproveDisposal("admin-r", *request)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(vault_->ReadRecord("dr-a", *id).ok());

  auto trail = vault_->ReadAuditTrail("aud-x", *id);
  ASSERT_TRUE(trail.ok());
  bool refusal_logged = false;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kAccessDenied &&
        e.details.find("self-approval") != std::string::npos) {
      refusal_logged = true;
    }
  }
  EXPECT_TRUE(refusal_logged);
  // The second admin can still complete it.
  EXPECT_TRUE(vault_->ApproveDisposal("admin-s", *request).ok());
}

TEST_F(DualDisposalTest, RequestAndApprovalBothGatedByRetentionAndRole) {
  auto id = CreateSample();
  ASSERT_TRUE(id.ok());
  // Too early to even request.
  EXPECT_TRUE(vault_->RequestDisposal("admin-r", *id)
                  .status()
                  .IsRetentionViolation());
  clock_.AdvanceYears(2);
  // Non-admins can neither request nor approve.
  EXPECT_TRUE(vault_->RequestDisposal("dr-a", *id)
                  .status()
                  .IsPermissionDenied());
  auto request = vault_->RequestDisposal("admin-r", *id);
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(vault_->ApproveDisposal("dr-a", *request)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(
      vault_->ApproveDisposal("admin-s", "dr-999").status().IsNotFound());
}

TEST_F(VaultTest, PlaintextNeverOnDisk) {
  RegisterCast();
  ASSERT_TRUE(CreateSample("EXTREMELYSECRETPHRASE").ok());
  // Scan every vault file for the plaintext.
  for (const char* sub : {"", "/segments"}) {
    const std::string dir = std::string("vault") + sub;
    std::vector<std::string> children;
    ASSERT_TRUE(env_.GetChildren(dir, &children).ok());
    for (const std::string& name : children) {
      std::string contents;
      if (!storage::ReadFileToString(&env_, dir + "/" + name, &contents)
               .ok()) {
        continue;
      }
      EXPECT_EQ(contents.find("EXTREMELYSECRETPHRASE"), std::string::npos)
          << "plaintext leaked into " << name;
    }
  }
}

TEST_F(VaultTest, CreateRecordsBatchBehavesLikeLoopedCreates) {
  RegisterCast();
  std::vector<Vault::NewRecord> batch;
  for (int i = 0; i < 5; i++) {
    Vault::NewRecord r;
    r.patient_id = "pat-p";
    r.content_type = "text/plain";
    r.plaintext = "batch note " + std::to_string(i);
    r.keywords = {"batched", "note-" + std::to_string(i)};
    r.retention_policy = "short-1y";
    batch.push_back(std::move(r));
  }
  auto ids = vault_->CreateRecordsBatch("dr-a", batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), 5u);

  // Each record readable with its own plaintext, searchable, audited.
  for (int i = 0; i < 5; i++) {
    auto read = vault_->ReadRecord("dr-a", (*ids)[i]);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->plaintext, "batch note " + std::to_string(i));
  }
  auto hits = vault_->SearchKeyword("dr-a", "batched");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  int creates = 0;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kCreate) creates++;
  }
  EXPECT_EQ(creates, 5);
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

TEST_F(VaultTest, CreateRecordsBatchValidatesWholeBatchFirst) {
  RegisterCast();
  Vault::NewRecord good;
  good.patient_id = "pat-p";
  good.content_type = "text/plain";
  good.plaintext = "fine";
  good.retention_policy = "short-1y";
  Vault::NewRecord bad = good;
  bad.retention_policy = "no-such-policy";

  // The bad entry is last, but nothing from the batch may be created.
  size_t before = vault_->ListRecordIds().size();
  auto rejected = vault_->CreateRecordsBatch("dr-a", {good, good, bad});
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(vault_->ListRecordIds().size(), before);
  EXPECT_TRUE(vault_->VerifyEverything().ok());
}

}  // namespace
}  // namespace medvault::core
