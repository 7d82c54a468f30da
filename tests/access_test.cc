// Access-control tests: role policy matrix, treating-relationship
// scoping, break-glass semantics, minimum-necessary for admins.

#include <gtest/gtest.h>

#include "core/access.h"

namespace medvault::core {
namespace {

class AccessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ac_.RegisterPrincipal({"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"nurse-n", Role::kNurse, "Nurse N"}).ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"clerk-c", Role::kClerk, "Clerk C"}).ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"aud-x", Role::kAuditor, "Auditor X"}).ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"pat-p", Role::kPatient, "Patient P"}).ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"pat-q", Role::kPatient, "Patient Q"}).ok());
    ASSERT_TRUE(
        ac_.RegisterPrincipal({"admin-r", Role::kAdmin, "Admin R"}).ok());
    ASSERT_TRUE(ac_.AssignCare("dr-a", "pat-p").ok());
    ASSERT_TRUE(ac_.AssignCare("nurse-n", "pat-p").ok());
  }

  Status Check(const std::string& actor, Operation op,
               const std::string& patient = "") {
    return ac_.CheckAccess(actor, op, patient, "", now_, nullptr);
  }

  AccessController ac_;
  Timestamp now_ = 1000000;
};

TEST_F(AccessTest, RegistrationValidation) {
  EXPECT_TRUE(
      ac_.RegisterPrincipal({"", Role::kClerk, ""}).IsInvalidArgument());
  EXPECT_TRUE(ac_.RegisterPrincipal({"dr-a", Role::kClerk, "dup"})
                  .IsAlreadyExists());
  auto p = ac_.GetPrincipal("dr-a");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->role, Role::kPhysician);
  EXPECT_TRUE(ac_.GetPrincipal("ghost").status().IsNotFound());
}

TEST_F(AccessTest, UnknownActorIsNotFound) {
  EXPECT_TRUE(Check("ghost", Operation::kReadRecord, "pat-p").IsNotFound());
}

TEST_F(AccessTest, PhysicianScopedByCareRelation) {
  EXPECT_TRUE(Check("dr-a", Operation::kReadRecord, "pat-p").ok());
  EXPECT_TRUE(Check("dr-a", Operation::kCorrectRecord, "pat-p").ok());
  EXPECT_TRUE(Check("dr-a", Operation::kCreateRecord, "pat-p").ok());
  // Not their patient:
  EXPECT_TRUE(
      Check("dr-a", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  EXPECT_TRUE(Check("dr-a", Operation::kCorrectRecord, "pat-q")
                  .IsPermissionDenied());
}

TEST_F(AccessTest, NurseReadsButDoesNotCorrect) {
  EXPECT_TRUE(Check("nurse-n", Operation::kReadRecord, "pat-p").ok());
  EXPECT_TRUE(Check("nurse-n", Operation::kCorrectRecord, "pat-p")
                  .IsPermissionDenied());
}

TEST_F(AccessTest, ClerkCreatesOnly) {
  EXPECT_TRUE(Check("clerk-c", Operation::kCreateRecord, "pat-q").ok());
  EXPECT_TRUE(
      Check("clerk-c", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  EXPECT_TRUE(
      Check("clerk-c", Operation::kSearch).IsPermissionDenied());
}

TEST_F(AccessTest, PatientReadsOwnRecordsOnly) {
  EXPECT_TRUE(Check("pat-p", Operation::kReadRecord, "pat-p").ok());
  EXPECT_TRUE(
      Check("pat-p", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  // Right to request amendment of own records:
  EXPECT_TRUE(Check("pat-p", Operation::kCorrectRecord, "pat-p").ok());
  EXPECT_TRUE(Check("pat-p", Operation::kCorrectRecord, "pat-q")
                  .IsPermissionDenied());
}

TEST_F(AccessTest, AuditorReadsTrailsNotRecords) {
  EXPECT_TRUE(Check("aud-x", Operation::kReadAudit).ok());
  EXPECT_TRUE(
      Check("aud-x", Operation::kReadRecord, "pat-p").IsPermissionDenied());
}

TEST_F(AccessTest, AdminMinimumNecessary) {
  // Admins run the system but may not read clinical content.
  EXPECT_TRUE(Check("admin-r", Operation::kDispose, "pat-p").ok());
  EXPECT_TRUE(Check("admin-r", Operation::kMigrate).ok());
  EXPECT_TRUE(Check("admin-r", Operation::kBackup).ok());
  EXPECT_TRUE(Check("admin-r", Operation::kManagePrincipals).ok());
  EXPECT_TRUE(Check("admin-r", Operation::kReadAudit).ok());
  EXPECT_TRUE(
      Check("admin-r", Operation::kReadRecord, "pat-p").IsPermissionDenied());
}

TEST_F(AccessTest, OnlyAdminsDisposeOrMigrate) {
  for (const char* actor : {"dr-a", "nurse-n", "clerk-c", "pat-p", "aud-x"}) {
    EXPECT_TRUE(Check(actor, Operation::kDispose, "pat-p")
                    .IsPermissionDenied())
        << actor;
    EXPECT_TRUE(Check(actor, Operation::kMigrate).IsPermissionDenied())
        << actor;
  }
}

TEST_F(AccessTest, CareRelationLifecycle) {
  EXPECT_FALSE(ac_.InCare("dr-a", "pat-q"));
  ASSERT_TRUE(ac_.AssignCare("dr-a", "pat-q").ok());
  EXPECT_TRUE(ac_.InCare("dr-a", "pat-q"));
  EXPECT_TRUE(Check("dr-a", Operation::kReadRecord, "pat-q").ok());
  ASSERT_TRUE(ac_.RevokeCare("dr-a", "pat-q").ok());
  EXPECT_TRUE(
      Check("dr-a", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  EXPECT_TRUE(ac_.RevokeCare("dr-a", "pat-q").IsNotFound());
}

TEST_F(AccessTest, OnlyCliniciansGetCareRelations) {
  EXPECT_TRUE(ac_.AssignCare("clerk-c", "pat-p").IsInvalidArgument());
  EXPECT_TRUE(ac_.AssignCare("admin-r", "pat-p").IsInvalidArgument());
}

TEST_F(AccessTest, BreakGlassGrantsTemporaryAccess) {
  ASSERT_TRUE(
      Check("dr-a", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  auto grant = ac_.BreakGlass("dr-a", "pat-q", "ER: patient unconscious",
                              now_, now_ + 3600 * kMicrosPerSecond);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(ac_.ActiveGrantCount(now_), 1u);
  EXPECT_TRUE(Check("dr-a", Operation::kReadRecord, "pat-q").ok());
  EXPECT_TRUE(Check("dr-a", Operation::kCreateRecord, "pat-q").ok());

  // Expiry ends the grant.
  now_ += 2 * 3600 * kMicrosPerSecond;
  EXPECT_TRUE(
      Check("dr-a", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  EXPECT_EQ(ac_.ActiveGrantCount(now_), 0u);
}

TEST_F(AccessTest, BreakGlassRequiresJustificationAndClinician) {
  EXPECT_TRUE(ac_.BreakGlass("dr-a", "pat-q", "", now_, now_ + 1000)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ac_.BreakGlass("clerk-c", "pat-q", "why", now_, now_ + 1000)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(ac_.BreakGlass("dr-a", "pat-q", "why", now_, now_)
                  .status()
                  .IsInvalidArgument());  // already expired
}

TEST_F(AccessTest, BreakGlassDoesNotLeakToOtherClinicians) {
  ASSERT_TRUE(ac_.BreakGlass("dr-a", "pat-q", "ER", now_, now_ + 1000000)
                  .ok());
  EXPECT_TRUE(
      Check("nurse-n", Operation::kReadRecord, "pat-q").IsPermissionDenied());
}

TEST_F(AccessTest, BreakGlassExpiryBoundaryIsExclusive) {
  const Timestamp expires = now_ + 1000;
  ASSERT_TRUE(ac_.BreakGlass("dr-a", "pat-q", "ER", now_, expires).ok());
  // Active strictly before expiry...
  now_ = expires - 1;
  EXPECT_TRUE(Check("dr-a", Operation::kReadRecord, "pat-q").ok());
  EXPECT_EQ(ac_.ActiveGrantCount(now_), 1u);
  // ...refused at exactly expires_at. Pins `<` (never `<=`): a grant
  // exercised at its own expiry instant has already lapsed.
  now_ = expires;
  EXPECT_TRUE(
      Check("dr-a", Operation::kReadRecord, "pat-q").IsPermissionDenied());
  EXPECT_EQ(ac_.ActiveGrantCount(now_), 0u);
}

TEST_F(AccessTest, ConsentDelegatesReadOnlyWithNamedBasis) {
  ConsentRegistry consents;
  consents.Configure(std::string(32, 'K'), "cg");
  ac_.AttachConsentRegistry(&consents);
  // pat-q delegates to dr-a, who has no care relation with them.
  auto g = consents.Grant("pat-q", "dr-a", "", "second opinion", now_,
                          now_ + 1000);
  ASSERT_TRUE(g.ok());

  AccessBasis basis;
  ASSERT_TRUE(ac_.CheckAccess("dr-a", Operation::kReadRecord, "pat-q", "r-1",
                              now_, &basis)
                  .ok());
  EXPECT_EQ(basis.kind, AccessBasis::Kind::kConsent);
  EXPECT_EQ(basis.grant_id, g->grant_id);
  // Consent never authorizes writes.
  EXPECT_TRUE(ac_.CheckAccess("dr-a", Operation::kCorrectRecord, "pat-q",
                              "r-1", now_, nullptr)
                  .IsPermissionDenied());
  // Reads on a stronger basis are not attributed to the consent grant.
  basis = AccessBasis{};
  ASSERT_TRUE(ac_.CheckAccess("dr-a", Operation::kReadRecord, "pat-p", "r-2",
                              now_, &basis)
                  .ok());
  EXPECT_EQ(basis.kind, AccessBasis::Kind::kCare);
  // Same exclusive expiry boundary as break-glass.
  EXPECT_TRUE(ac_.CheckAccess("dr-a", Operation::kReadRecord, "pat-q", "r-1",
                              now_ + 999, nullptr)
                  .ok());
  EXPECT_TRUE(ac_.CheckAccess("dr-a", Operation::kReadRecord, "pat-q", "r-1",
                              now_ + 1000, nullptr)
                  .IsPermissionDenied());
}

TEST_F(AccessTest, DenialMessagesNameRoleAndOperation) {
  Status s = Check("clerk-c", Operation::kReadRecord, "pat-p");
  EXPECT_NE(s.message().find("clerk"), std::string::npos);
  EXPECT_NE(s.message().find("read-record"), std::string::npos);
}

}  // namespace
}  // namespace medvault::core
