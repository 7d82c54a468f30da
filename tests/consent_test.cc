// Patient-driven sharing tests: the ConsentRegistry's grant semantics
// (scoping, time-boxing, signatures), the Vault's enforcement of them
// (RBAC, ownership, synchronous revocation, disposal kill, audit and
// §164.528 accounting), persistence across reopen, sharded routing,
// and a concurrent grant/revoke churn that the sanitizer builds watch.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/access.h"
#include "core/consent.h"
#include "core/record_cache.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "obs/metrics.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

constexpr Timestamp kHour = 3600 * kMicrosPerSecond;

// ---------------------------------------------------------------------------
// Registry semantics (no vault)
// ---------------------------------------------------------------------------

class ConsentRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.Configure(std::string(32, 'K'), "cg");
  }

  ConsentRegistry registry_;
  Timestamp now_ = 1000000;
};

TEST_F(ConsentRegistryTest, GrantValidation) {
  EXPECT_TRUE(registry_.Grant("", "dr-a", "", "why", now_, now_ + 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry_.Grant("pat-p", "", "", "why", now_, now_ + 1)
                  .status()
                  .IsInvalidArgument());
  // Patients already read their own records; self-consent is a bug.
  EXPECT_TRUE(registry_.Grant("pat-p", "pat-p", "", "why", now_, now_ + 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry_.Grant("pat-p", "dr-a", "", "", now_, now_ + 1)
                  .status()
                  .IsInvalidArgument());
  // Already expired at issue.
  EXPECT_TRUE(registry_.Grant("pat-p", "dr-a", "", "why", now_, now_)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ConsentRegistryTest, ScopeFollowsRecordId) {
  auto record_scoped =
      registry_.Grant("pat-p", "dr-a", "r-1", "referral", now_, now_ + kHour);
  ASSERT_TRUE(record_scoped.ok());
  EXPECT_EQ(record_scoped->scope, ConsentScope::kRecord);
  EXPECT_EQ(record_scoped->grant_id, "cg-1");

  auto patient_scoped =
      registry_.Grant("pat-p", "dr-b", "", "second opinion", now_,
                      now_ + kHour);
  ASSERT_TRUE(patient_scoped.ok());
  EXPECT_EQ(patient_scoped->scope, ConsentScope::kPatient);
  EXPECT_EQ(patient_scoped->grant_id, "cg-2");

  // Record-scoped: only that record, only that grantee.
  EXPECT_TRUE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-1", now_, nullptr));
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-2", now_, nullptr));
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-c", "pat-p", "r-1", now_, nullptr));
  // Patient-scoped: any of the patient's records, including future ids.
  EXPECT_TRUE(
      registry_.HasActiveConsent("dr-b", "pat-p", "r-999", now_, nullptr));
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-b", "pat-q", "r-1", now_, nullptr));

  std::string matched;
  ASSERT_TRUE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-1", now_, &matched));
  EXPECT_EQ(matched, "cg-1");
}

TEST_F(ConsentRegistryTest, ExpiryBoundaryIsExclusive) {
  const Timestamp expires = now_ + kHour;
  ASSERT_TRUE(
      registry_.Grant("pat-p", "dr-a", "r-1", "why", now_, expires).ok());
  // Active strictly before expiry...
  EXPECT_TRUE(registry_.HasActiveConsent("dr-a", "pat-p", "r-1", expires - 1,
                                         nullptr));
  EXPECT_EQ(registry_.ActiveCount(expires - 1), 1u);
  // ...and refused at exactly expires_at: `<`, never `<=`. (This probe
  // also prunes the now-dead grant from the table.)
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-1", expires, nullptr));
  EXPECT_EQ(registry_.ActiveCount(expires), 0u);
}

TEST_F(ConsentRegistryTest, RevokeAndListLifecycle) {
  auto g = registry_.Grant("pat-p", "dr-a", "r-1", "why", now_, now_ + kHour);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(registry_.ListForPatient("pat-p", now_).size(), 1u);
  EXPECT_TRUE(registry_.Revoke(g->grant_id).ok());
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-1", now_, nullptr));
  EXPECT_TRUE(registry_.Revoke(g->grant_id).IsNotFound());
  EXPECT_TRUE(registry_.ListForPatient("pat-p", now_).empty());
}

TEST_F(ConsentRegistryTest, RevokeAllForRecordSparesPatientScope) {
  ASSERT_TRUE(
      registry_.Grant("pat-p", "dr-a", "r-1", "why", now_, now_ + kHour)
          .ok());
  ASSERT_TRUE(
      registry_.Grant("pat-p", "dr-b", "r-1", "why", now_, now_ + kHour)
          .ok());
  auto broad =
      registry_.Grant("pat-p", "dr-c", "", "why", now_, now_ + kHour);
  ASSERT_TRUE(broad.ok());

  auto killed = registry_.RevokeAllForRecord("pat-p", "r-1");
  EXPECT_EQ(killed.size(), 2u);
  // No record-scoped grant on r-1 is left: its grantees lose it, and a
  // second sweep finds nothing.
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-a", "pat-p", "r-1", now_, nullptr));
  EXPECT_FALSE(
      registry_.HasActiveConsent("dr-b", "pat-p", "r-1", now_, nullptr));
  EXPECT_TRUE(registry_.RevokeAllForRecord("pat-p", "r-1").empty());
  // The patient-scoped grant survives — it covers the patient's other
  // records, and the shredded one is unreadable once its key is gone.
  EXPECT_TRUE(
      registry_.HasActiveConsent("dr-c", "pat-p", "r-2", now_, nullptr));
}

TEST_F(ConsentRegistryTest, SignatureBindsEveryField) {
  auto g = registry_.Grant("pat-p", "dr-a", "r-1", "why", now_, now_ + kHour);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(registry_.VerifySignature(*g).ok());

  // Flipping any signed field must fail verification.
  for (int field = 0; field < 5; ++field) {
    ConsentGrant tampered = *g;
    switch (field) {
      case 0: tampered.grantee = "mallory"; break;
      case 1: tampered.record_id = "r-2"; break;
      case 2: tampered.purpose = "widened"; break;
      case 3: tampered.expires_at += kHour; break;
      case 4: tampered.patient = "pat-q"; break;
    }
    EXPECT_TRUE(registry_.VerifySignature(tampered).IsTamperDetected())
        << "field " << field;
  }
}

TEST_F(ConsentRegistryTest, EncodeDecodeRoundTrip) {
  auto g = registry_.Grant("pat-p", "dr-a", "r-1", "referral care", now_,
                           now_ + kHour);
  ASSERT_TRUE(g.ok());
  auto decoded = ConsentGrant::Decode(g->Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->grant_id, g->grant_id);
  EXPECT_EQ(decoded->patient, g->patient);
  EXPECT_EQ(decoded->grantee, g->grantee);
  EXPECT_EQ(decoded->record_id, g->record_id);
  EXPECT_EQ(decoded->scope, g->scope);
  EXPECT_EQ(decoded->purpose, g->purpose);
  EXPECT_EQ(decoded->issued_at, g->issued_at);
  EXPECT_EQ(decoded->expires_at, g->expires_at);
  EXPECT_EQ(decoded->signature, g->signature);
  EXPECT_TRUE(registry_.VerifySignature(*decoded).ok());

  // Truncations and trailing garbage are corruption, never a crash.
  const std::string wire = g->Encode();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(ConsentGrant::Decode(Slice(wire.data(), cut)).ok());
  }
  EXPECT_TRUE(
      ConsentGrant::Decode(wire + "x").status().IsCorruption());
}

TEST_F(ConsentRegistryTest, RestoreKeepsIdCounterAhead) {
  auto g = registry_.Grant("pat-p", "dr-a", "r-1", "why", now_, now_ + kHour);
  ASSERT_TRUE(g.ok());

  ConsentRegistry replayed;
  replayed.Configure(std::string(32, 'K'), "cg");
  ASSERT_TRUE(replayed.Restore(*g, now_).ok());
  EXPECT_TRUE(
      replayed.HasActiveConsent("dr-a", "pat-p", "r-1", now_, nullptr));
  // A fresh grant after replay must not collide with the replayed id.
  auto next =
      replayed.Grant("pat-p", "dr-b", "", "why", now_, now_ + kHour);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->grant_id, "cg-2");

  // Replaying an expired grant notes the id but installs nothing.
  ConsentRegistry late;
  late.Configure(std::string(32, 'K'), "cg");
  ASSERT_TRUE(late.Restore(*g, g->expires_at).ok());
  EXPECT_EQ(late.ActiveCount(g->expires_at), 0u);
}

// ---------------------------------------------------------------------------
// Lookups stay flat at 100k live grants. No timing is asserted: a table
// that scanned every grant per lookup (~14 ms each at 100k) needs hours
// for these loops and fails on the suite's timeout instead.
// ---------------------------------------------------------------------------

std::string Nth(const char* prefix, int n) {
  return prefix + std::to_string(n);
}

TEST(GrantScaleTest, ConsentLookupsStayFlatAt100kGrants) {
  constexpr int kPatients = 10000;
  constexpr int kGrantees = 10;  // 100k grants
  ConsentRegistry registry;
  registry.Configure(std::string(32, 'K'), "cg");
  const Timestamp now = 1000000;
  // Even grantees hold patient scope, odd ones one record; grantee 0's
  // grants end an hour before the rest.
  for (int p = 0; p < kPatients; ++p) {
    for (int g = 0; g < kGrantees; ++g) {
      const RecordId record = g % 2 == 0 ? "" : Nth("r-", p * kGrantees + g);
      const Timestamp expires = now + (g == 0 ? kHour : 2 * kHour);
      ASSERT_TRUE(registry
                      .Grant(Nth("pat-", p), Nth("dr-", g), record, "study",
                             now, expires)
                      .ok());
    }
  }
  EXPECT_EQ(registry.ActiveCount(now), 100000u);

  for (int i = 0; i < 20000; ++i) {
    const int p = (i * 7919) % kPatients;
    const std::string patient = Nth("pat-", p);
    const RecordId own = Nth("r-", p * kGrantees + 3);
    std::string id;
    EXPECT_TRUE(registry.HasActiveConsent("dr-2", patient, own, now, &id));
    EXPECT_TRUE(registry.HasActiveConsent("dr-3", patient, own, now, &id));
    EXPECT_FALSE(registry.HasActiveConsent(
        "dr-5", patient, own, now, nullptr));  // another record's grant
    EXPECT_FALSE(registry.HasActiveConsent(
        "dr-404", patient, own, now, nullptr));  // no grant at all
  }
  for (int p = 0; p < kPatients; p += 5) {
    EXPECT_EQ(registry.ListForPatient(Nth("pat-", p), now).size(),
              static_cast<size_t>(kGrantees));
  }

  // Revoke every patient's dr-1 grant; each miss then stays flat too.
  for (int p = 0; p < kPatients; ++p) {
    const std::string grant_id = Nth("cg-", p * kGrantees + 2);
    ASSERT_TRUE(registry.Revoke(grant_id).ok()) << grant_id;
  }
  for (int p = 0; p < kPatients; ++p) {
    EXPECT_FALSE(registry.HasActiveConsent("dr-1", Nth("pat-", p),
                                           Nth("r-", p * kGrantees + 1), now,
                                           nullptr));
  }

  // An hour on, every dr-0 grant has lapsed: never matched, not counted,
  // not listed, and the next grant prunes them all.
  const Timestamp later = now + kHour;
  EXPECT_FALSE(registry.HasActiveConsent("dr-0", "pat-7", "r-1", later,
                                         nullptr));
  EXPECT_EQ(registry.ActiveCount(later), 80000u);
  EXPECT_EQ(registry.ListForPatient("pat-7", later).size(), 8u);
  ASSERT_TRUE(registry.Grant("pat-7", "dr-0", "", "renewed", later,
                             later + kHour)
                  .ok());
  EXPECT_EQ(registry.ActiveCount(later), 80001u);
  EXPECT_TRUE(registry.HasActiveConsent("dr-0", "pat-7", "r-1", later,
                                        nullptr));
}

TEST(GrantScaleTest, BreakGlassLookupsStayFlatAt100kGrants) {
  constexpr int kClinicians = 100;
  constexpr int kPatients = 1000;  // 100k grants
  AccessController access;
  for (int c = 0; c < kClinicians; ++c) {
    ASSERT_TRUE(access
                    .RegisterPrincipal({Nth("dr-", c), Role::kPhysician,
                                        Nth("Dr ", c)})
                    .ok());
  }
  const Timestamp now = 1000000;
  for (int c = 0; c < kClinicians; ++c) {
    for (int p = 0; p < kPatients; ++p) {
      // Odd patients' grants end an hour before the even ones'.
      const Timestamp expires = now + (p % 2 == 1 ? kHour : 2 * kHour);
      ASSERT_TRUE(access
                      .BreakGlass(Nth("dr-", c), Nth("pat-", p), "ER", now,
                                  expires)
                      .ok());
    }
  }
  EXPECT_EQ(access.ActiveGrantCount(now), 100000u);

  for (int i = 0; i < 20000; ++i) {
    const std::string clinician = Nth("dr-", i % kClinicians);
    const std::string patient = Nth("pat-", (i * 7919) % kPatients);
    AccessBasis basis;
    EXPECT_TRUE(access
                    .CheckAccess(clinician, Operation::kReadRecord, patient,
                                 "", now, &basis)
                    .ok());
    EXPECT_EQ(basis.kind, AccessBasis::Kind::kBreakGlass);
    EXPECT_TRUE(access
                    .CheckAccess(clinician, Operation::kReadRecord,
                                 Nth("stranger-", i), "", now, nullptr)
                    .IsPermissionDenied());
  }

  // An hour on, the odd patients' grants have lapsed.
  const Timestamp later = now + kHour;
  EXPECT_EQ(access.ActiveGrantCount(later), 50000u);
  for (int i = 0; i < 20000; ++i) {
    const std::string clinician = Nth("dr-", i % kClinicians);
    const int p = (i * 7919) % kPatients;
    EXPECT_EQ(access
                  .CheckAccess(clinician, Operation::kReadRecord,
                               Nth("pat-", p), "", later, nullptr)
                  .ok(),
              p % 2 == 0);
  }
}

// ---------------------------------------------------------------------------
// Vault enforcement
// ---------------------------------------------------------------------------

class ConsentVaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OpenVault();
    ASSERT_TRUE(
        vault_->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"dr-b", Role::kPhysician, "Dr B"})
                    .ok());
    ASSERT_TRUE(
        vault_
            ->RegisterPrincipal("admin-r", {"aud-x", Role::kAuditor, "X"})
            .ok());
    ASSERT_TRUE(
        vault_->RegisterPrincipal("admin-r", {"pat-p", Role::kPatient, "P"})
            .ok());
    ASSERT_TRUE(
        vault_->RegisterPrincipal("admin-r", {"pat-q", Role::kPatient, "Q"})
            .ok());
    ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-a", "pat-p").ok());
  }

  void OpenVault() {
    VaultOptions options;
    options.env = &env_;
    options.dir = "vault";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "consent-test-entropy";
    options.signer_height = 4;
    options.cache = &cache_;
    options.metrics = &metrics_;
    auto vault = Vault::Open(options);
    ASSERT_TRUE(vault.ok()) << vault.status().ToString();
    vault_ = std::move(vault).value();
  }

  void Reopen() {
    vault_.reset();
    OpenVault();
  }

  Result<RecordId> CreateForP() {
    return vault_->CreateRecord("dr-a", "pat-p", "text/plain", "p note",
                                {"cardiology"}, "hipaa-6y");
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  RecordCache cache_{1 << 20};
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Vault> vault_;
};

TEST_F(ConsentVaultTest, OnlyPatientsDelegateAndOnlyTheirOwnRecords) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  // Non-patient principals cannot issue consent grants.
  EXPECT_TRUE(vault_->GrantConsent("dr-a", "dr-b", *rp, "why", kHour)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(vault_->GrantConsent("admin-r", "dr-b", *rp, "why", kHour)
                  .status()
                  .IsPermissionDenied());
  // pat-q does not own rp.
  EXPECT_TRUE(vault_->GrantConsent("pat-q", "dr-b", *rp, "why", kHour)
                  .status()
                  .IsPermissionDenied());
  // The grantee must be a registered principal.
  EXPECT_TRUE(vault_->GrantConsent("pat-p", "ghost", *rp, "why", kHour)
                  .status()
                  .IsNotFound());
  // Valid: the record's owner delegates to a registered principal.
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "referral", kHour);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->scope, ConsentScope::kRecord);
  EXPECT_EQ(vault_->ActiveConsentCount(), 1u);
}

TEST_F(ConsentVaultTest, GranteeReadsAndAuditNamesTheBasis) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  // dr-b has no care relation with pat-p: refused before the grant...
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).status().IsPermissionDenied());
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "referral", kHour);
  ASSERT_TRUE(g.ok());
  // ...allowed under it.
  auto read = vault_->ReadRecord("dr-b", *rp);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->plaintext, "p note");
  ASSERT_TRUE(vault_->RecordHistory("dr-b", *rp).ok());
  ASSERT_TRUE(vault_->ReadRecordVersion("dr-b", *rp, 1).ok());

  // Every read exercised through the grant names it in the audit trail;
  // reads on another basis (care relation) stay unannotated.
  ASSERT_TRUE(vault_->ReadRecord("dr-a", *rp).ok());
  auto trail = vault_->ReadAuditTrail("aud-x", *rp);
  ASSERT_TRUE(trail.ok());
  const std::string tag = " via=consent grant=" + g->grant_id;
  size_t tagged = 0;
  for (const AuditEvent& e : *trail) {
    // Denied attempts log as kAccessDenied, so every kRead here is a
    // successful disclosure.
    if (e.actor == "dr-b" && e.action == AuditAction::kRead) {
      EXPECT_NE(e.details.find(tag), std::string::npos) << e.details;
      ++tagged;
    }
    if (e.actor == "dr-a") {
      EXPECT_EQ(e.details.find("via="), std::string::npos) << e.details;
    }
  }
  EXPECT_EQ(tagged, 3u);  // read + history + version read
  EXPECT_EQ(metrics_.GetCounter("consent.exercised")->Value(), 2u);
}

TEST_F(ConsentVaultTest, ConsentIsReadOnlyDelegation) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(vault_->GrantConsent("pat-p", "dr-b", *rp, "why", kHour).ok());
  EXPECT_TRUE(vault_->CorrectRecord("dr-b", *rp, "rewrite", "fix", {})
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(
      vault_->DisposeRecord("dr-b", *rp).status().IsPermissionDenied());
  // Non-clinicians under patient-scoped consent still cannot search.
  ASSERT_TRUE(vault_->GrantConsent("pat-p", "pat-q", "", "proxy", kHour).ok());
  EXPECT_TRUE(vault_->SearchKeyword("pat-q", "cardiology")
                  .status()
                  .IsPermissionDenied());
  // But they can read the record directly.
  EXPECT_TRUE(vault_->ReadRecord("pat-q", *rp).ok());
}

TEST_F(ConsentVaultTest, ExpiryBoundaryThroughTheVaultClock) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "why", kHour);
  ASSERT_TRUE(g.ok());
  clock_.Set(g->expires_at - 1);
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).ok());
  // At exactly expires_at the grant is dead — `<`, never `<=`.
  clock_.Set(g->expires_at);
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).status().IsPermissionDenied());
  EXPECT_EQ(vault_->ActiveConsentCount(), 0u);
}

TEST_F(ConsentVaultTest, RevocationIsSynchronousAndPurgesCache) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "why", kHour);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-b", *rp).ok());
  EXPECT_GT(cache_.entry_count(), 0u);

  // Only the granting patient or an admin may revoke.
  EXPECT_TRUE(
      vault_->RevokeConsent("dr-b", g->grant_id).IsPermissionDenied());
  EXPECT_TRUE(
      vault_->RevokeConsent("pat-q", g->grant_id).IsPermissionDenied());
  ASSERT_TRUE(vault_->RevokeConsent("pat-p", g->grant_id).ok());

  // The instant the revoke returns: reads refused, no cached plaintext.
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).status().IsPermissionDenied());
  EXPECT_EQ(cache_.entry_count(), 0u);
  EXPECT_TRUE(vault_->RevokeConsent("pat-p", g->grant_id).IsNotFound());
  EXPECT_EQ(metrics_.GetCounter("consent.revoked")->Value(), 1u);
}

TEST_F(ConsentVaultTest, ListConsentsIsPatientOrAuditAuthority) {
  ASSERT_TRUE(vault_->GrantConsent("pat-p", "dr-b", "", "why", kHour).ok());
  auto own = vault_->ListConsents("pat-p", "pat-p");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->size(), 1u);
  ASSERT_TRUE(vault_->ListConsents("aud-x", "pat-p").ok());
  ASSERT_TRUE(vault_->ListConsents("admin-r", "pat-p").ok());
  EXPECT_TRUE(vault_->ListConsents("pat-q", "pat-p")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(vault_->ListConsents("dr-b", "pat-p")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(ConsentVaultTest, AccountingMatchesScanOracleWithGranteeIdentity) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "referral", kHour);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-b", *rp).ok());
  ASSERT_TRUE(vault_->ReadRecord("dr-a", *rp).ok());
  ASSERT_TRUE(
      vault_->BreakGlass("dr-b", "pat-q", "ER", kHour).ok());  // not pat-p

  auto accounting = vault_->AccountingOfDisclosures("aud-x", "pat-p");
  ASSERT_TRUE(accounting.ok());

  // Oracle: a full-trail scan. A disclosure of pat-p is a successful
  // read of their record or a consent grant they issued; dr-b's
  // break-glass names pat-q and must not appear.
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  std::vector<uint64_t> expected;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kRead && e.record_id == *rp) {
      expected.push_back(e.seq);
    }
    if (e.action == AuditAction::kConsentGrant &&
        e.details.rfind("patient=pat-p ", 0) == 0) {
      expected.push_back(e.seq);
    }
  }
  ASSERT_EQ(accounting->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*accounting)[i].seq, expected[i]);
  }
  // The grant discloses the grantee's identity; the delegated read
  // names both the grantee (actor) and the grant it rode in on.
  bool saw_grant = false, saw_delegated_read = false;
  for (const AuditEvent& e : *accounting) {
    if (e.action == AuditAction::kConsentGrant) {
      saw_grant = true;
      EXPECT_NE(e.details.find("grantee=dr-b"), std::string::npos);
    }
    if (e.action == AuditAction::kRead && e.actor == "dr-b") {
      saw_delegated_read = true;
      EXPECT_NE(e.details.find("via=consent grant=" + g->grant_id),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_grant);
  EXPECT_TRUE(saw_delegated_read);
}

TEST_F(ConsentVaultTest, GrantsSurviveReopenAndSoDoRevocations) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  auto keep = vault_->GrantConsent("pat-p", "dr-b", *rp, "keep", kHour);
  ASSERT_TRUE(keep.ok());
  auto kill = vault_->GrantConsent("pat-p", "pat-q", "", "kill", kHour);
  ASSERT_TRUE(kill.ok());
  ASSERT_TRUE(vault_->RevokeConsent("pat-p", kill->grant_id).ok());
  ASSERT_TRUE(vault_->SyncAll().ok());

  Reopen();
  EXPECT_EQ(vault_->ActiveConsentCount(), 1u);
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).ok());
  EXPECT_TRUE(vault_->ReadRecord("pat-q", *rp).status().IsPermissionDenied());
  // The id counter moved past both replayed grants.
  auto next = vault_->GrantConsent("pat-p", "pat-q", "", "fresh", kHour);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next->grant_id, keep->grant_id);
  EXPECT_NE(next->grant_id, kill->grant_id);

  // The expiry boundary also holds for restored grants.
  clock_.Set(keep->expires_at - 1);
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).ok());
  clock_.Set(keep->expires_at);
  EXPECT_TRUE(vault_->ReadRecord("dr-b", *rp).status().IsPermissionDenied());
}

TEST_F(ConsentVaultTest, CryptoShredKillsRecordGrantsSparesPatientScope) {
  auto rp = vault_->CreateRecord("dr-a", "pat-p", "text/plain", "p note",
                                 {}, "short-1y");
  ASSERT_TRUE(rp.ok());
  // Decade-long grants so they are still live when retention expires.
  const Timestamp kDecade = 10 * 365 * 24 * kHour;
  auto narrow = vault_->GrantConsent("pat-p", "dr-b", *rp, "narrow", kDecade);
  ASSERT_TRUE(narrow.ok());
  auto broad = vault_->GrantConsent("pat-p", "pat-q", "", "broad", kDecade);
  ASSERT_TRUE(broad.ok());

  clock_.AdvanceYears(2);  // past the 1-year retention
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", *rp).ok());
  // The record-scoped grant died with the key; the revocation is
  // audited with the shred as its reason.
  EXPECT_EQ(vault_->ActiveConsentCount(), 1u);
  auto live = vault_->ListConsents("pat-p", "pat-p");
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->size(), 1u);
  EXPECT_EQ((*live)[0].grant_id, broad->grant_id);
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  bool shred_revoke = false;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kConsentRevoke &&
        e.details.find("grant=" + narrow->grant_id) != std::string::npos) {
      EXPECT_NE(e.details.find("reason=crypto-shred"), std::string::npos);
      shred_revoke = true;
    }
  }
  EXPECT_TRUE(shred_revoke);
  // And it stays dead across reopen.
  ASSERT_TRUE(vault_->SyncAll().ok());
  Reopen();
  EXPECT_EQ(vault_->ActiveConsentCount(), 1u);
}

TEST_F(ConsentVaultTest, GrantOnDisposedOrForeignRecordRefused) {
  auto rp = vault_->CreateRecord("dr-a", "pat-p", "text/plain", "p note",
                                 {}, "short-1y");
  ASSERT_TRUE(rp.ok());
  clock_.AdvanceYears(2);  // past the 1-year retention
  ASSERT_TRUE(vault_->DisposeRecord("admin-r", *rp).ok());
  EXPECT_TRUE(vault_->GrantConsent("pat-p", "dr-b", *rp, "late", kHour)
                  .status()
                  .IsKeyDestroyed());
  EXPECT_TRUE(vault_->GrantConsent("pat-p", "dr-b", "r-999", "ghost", kHour)
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// Sharded routing
// ---------------------------------------------------------------------------

class ConsentShardedTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  void SetUp() override {
    ShardedVaultOptions options;
    options.env = &env_;
    options.dir = "sharded";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "consent-sharded";
    options.num_shards = kShards;
    options.signer_height = 4;
    auto opened = ShardedVault::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    vault_ = std::move(*opened);
    ASSERT_TRUE(
        vault_->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"dr-b", Role::kPhysician, "Dr B"})
                    .ok());
    for (int p = 0; p < 8; ++p) {
      const std::string pat = Patient(p);
      ASSERT_TRUE(
          vault_->RegisterPrincipal("admin-r", {pat, Role::kPatient, pat})
              .ok());
      ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-a", pat).ok());
    }
  }

  static std::string Patient(int p) { return "pat-" + std::to_string(p); }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  std::unique_ptr<ShardedVault> vault_;
};

TEST_F(ConsentShardedTest, GrantIdsNameTheirShardAndRouteBack) {
  for (int p = 0; p < 8; ++p) {
    const std::string pat = Patient(p);
    auto rid = vault_->CreateRecord("dr-a", pat, "text/plain", "n", {},
                                    "hipaa-6y");
    ASSERT_TRUE(rid.ok());
    auto g = vault_->GrantConsent(pat, "dr-b", *rid, "routing", kHour);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    uint32_t shard = 0;
    ASSERT_TRUE(ShardRouter::ShardOfConsentId(g->grant_id, &shard));
    EXPECT_EQ(shard, vault_->router().ShardOf(pat));
    // The grantee reads through the sharded facade.
    EXPECT_TRUE(vault_->ReadRecord("dr-b", *rid).ok());
    // Revocation routes by the grant id alone and is total.
    ASSERT_TRUE(vault_->RevokeConsent(pat, g->grant_id).ok());
    EXPECT_TRUE(
        vault_->ReadRecord("dr-b", *rid).status().IsPermissionDenied());
  }
  EXPECT_EQ(vault_->ActiveConsentCount(), 0u);
}

TEST_F(ConsentShardedTest, UnroutableGrantIdsAreNotFound) {
  EXPECT_TRUE(vault_->RevokeConsent(Patient(0), "cg-1").IsNotFound());
  EXPECT_TRUE(vault_->RevokeConsent(Patient(0), "s99-cg-1").IsNotFound());
  EXPECT_TRUE(vault_->RevokeConsent(Patient(0), "garbage").IsNotFound());
}

TEST_F(ConsentShardedTest, CrossShardGrantRefusedListsRouted) {
  // Find two patients on different shards.
  std::string a = Patient(0), b;
  for (int p = 1; p < 8; ++p) {
    if (vault_->router().ShardOf(Patient(p)) !=
        vault_->router().ShardOf(a)) {
      b = Patient(p);
      break;
    }
  }
  ASSERT_FALSE(b.empty());
  auto rid_b =
      vault_->CreateRecord("dr-a", b, "text/plain", "b", {}, "hipaa-6y");
  ASSERT_TRUE(rid_b.ok());
  // Patient a cannot grant on a record that lives on b's shard.
  EXPECT_TRUE(vault_->GrantConsent(a, "dr-b", *rid_b, "cross", kHour)
                  .status()
                  .IsPermissionDenied());

  auto g = vault_->GrantConsent(b, "dr-b", *rid_b, "own", kHour);
  ASSERT_TRUE(g.ok());
  auto listed = vault_->ListConsents(b, b);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].grant_id, g->grant_id);
  EXPECT_EQ(vault_->ActiveConsentCount(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrent churn (sanitizer target: smoke.sh re-runs the `consent`
// label under ASan/UBSan/TSan)
// ---------------------------------------------------------------------------

TEST_F(ConsentVaultTest, ConcurrentReadersNeverOutliveARevocation) {
  auto rp = CreateForP();
  ASSERT_TRUE(rp.ok());
  auto g = vault_->GrantConsent("pat-p", "dr-b", *rp, "churn", kHour);
  ASSERT_TRUE(g.ok());

  std::atomic<bool> revoked{false};
  std::atomic<int> started{0};
  std::atomic<int> late_success{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_release);
      // Bounded churn: each iteration after the revoke lands is one
      // audited denial, so an unbounded loop would just grow the audit
      // log while the main thread finishes.
      for (int i = 0; i < 300; ++i) {
        const bool was_revoked = revoked.load(std::memory_order_acquire);
        auto read = vault_->ReadRecord("dr-b", *rp);
        // Reads that *started* after the revoke returned must fail.
        // (A read overlapping the revoke may legitimately land either
        // way; one sampled strictly-after success is the bug.)
        if (was_revoked && read.ok()) {
          late_success.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Revoke mid-churn, once every reader is running.
  while (started.load(std::memory_order_acquire) < 4) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(vault_->RevokeConsent("pat-p", g->grant_id).ok());
  revoked.store(true, std::memory_order_release);
  // After the acked revoke: every new delegated read is refused...
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(
        vault_->ReadRecord("dr-b", *rp).status().IsPermissionDenied());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(late_success.load(), 0);
  // ...and the owner's reads may refill the cache, but a purge did run
  // the instant the grant died (revocation is synchronous and total).
  EXPECT_GT(cache_.stats().purges, 0u);
}

TEST_F(ConsentVaultTest, AuthorizationReadsGrantsUnderTheVaultLock) {
  // Backup and migration authorize through Vault::CheckAccess. For a
  // clinician it looks up break-glass grants, which another thread is
  // adding; the vault's lock is the only thing ordering the two.
  std::atomic<bool> done{false};
  std::thread checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(
          vault_->CheckAccess("dr-b", Operation::kBackup).IsPermissionDenied());
    }
  });
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(vault_->BreakGlass("dr-b", "pat-" + std::to_string(i),
                                   "ER", kHour)
                    .ok());
  }
  done.store(true, std::memory_order_release);
  checker.join();
  EXPECT_TRUE(vault_->CheckAccess("admin-r", Operation::kBackup).ok());
}

}  // namespace
}  // namespace medvault::core
