// Known-answer pins on a MemEnv vault driven by a fixed ManualClock.
//
// The create pin runs a sequence of CreateRecord calls (two patients,
// keywords, one denied create) and pins the SHA-256 of every file the
// vault wrote. Any change to how a create reaches the key store,
// version segments, index, state log, audit log or provenance log must
// leave every byte on disk unchanged.
//
// The grant pin runs break-glass and consent grants through a read
// that several grants match, a revoke, a disposal that shreds
// record-scoped grants and a reopen, and pins state.log and audit.log.
// Grant ids past 9 sort differently as strings ("cg-10" < "cg-2") and
// as numbers, so the pin fixes which grant an audited read names and
// the order in which a disposal revokes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hex.h"
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

VaultOptions PinOptions(storage::MemEnv* env, ManualClock* clock) {
  VaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "create-pin-entropy";
  options.signer_height = 4;
  return options;
}

TEST(CreatePinTest, VaultFilesAfterFixedCreateSequence) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  const VaultOptions options = PinOptions(&env, &clock);
  auto opened = Vault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Vault> vault = std::move(opened).value();

  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
          .ok());
  ASSERT_TRUE(vault
                  ->RegisterPrincipal("admin-r",
                                      {"dr-a", Role::kPhysician, "Dr A"})
                  .ok());
  ASSERT_TRUE(vault
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"pat-p", Role::kPatient, "P"})
          .ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"pat-q", Role::kPatient, "Q"})
          .ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-p").ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-q").ok());

  struct Create {
    const char* patient;
    const char* text;
    std::vector<std::string> keywords;
    const char* policy;
  };
  const Create creates[] = {
      {"pat-p", "admission note: chest pain", {"cardiology", "chest-pain"},
       "hipaa-6y"},
      {"pat-q", "progress note: stable", {"oncology"}, "osha-30y"},
      {"pat-p", "discharge summary", {}, "short-1y"},
      {"pat-q", "lab result: HbA1c 6.1%", {"diabetes", "lab", "oncology"},
       "hipaa-6y"},
  };
  std::vector<RecordId> ids;
  for (const Create& c : creates) {
    clock.Advance(1500);
    auto id = vault->CreateRecord("dr-a", c.patient, "text/plain", c.text,
                                  c.keywords, c.policy);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(ids, (std::vector<RecordId>{"r-1", "r-2", "r-3", "r-4"}));

  // dr-b has no care relationship with pat-q: denied and audited.
  clock.Advance(1500);
  EXPECT_TRUE(vault
                  ->CreateRecord("dr-b", "pat-q", "text/plain", "denied",
                                 {"oncology"}, "hipaa-6y")
                  .status()
                  .IsPermissionDenied());

  std::map<std::string, std::string> hashes;
  HashTree(&env, "vault", &hashes);
  const std::map<std::string, std::string> kPinned = {
      {"vault/audit.log",
       "3a1ee7f30f3ab8b09c8dd6dd6ab18abdd74770011b7b22c196fa422c6f7ade66"},
      {"vault/catalog.log",
       "03d72b41a16476cb8536fd31307638383fb5d1b5f096b99169717414de3eea17"},
      {"vault/index.log",
       "cb594866729baa6bfc4455ace8906617eb9e2ea172d10e9769359d3e31f97bd5"},
      {"vault/keys.db",
       "37c45831356c06a9fbaa0eba8d59f56493d9d734de3fef7a3af9e00687f68687"},
      {"vault/provenance.log",
       "4a9ea7ebbe027a641994fac82e5d31f3847aaba3be5e2381874d2cedf92e534e"},
      {"vault/segments/seg-00000001",
       "6eee7023a8b89f78c3637df29c3c32b68fecfa8812906c7f79dbf0aaf47f5212"},
      // The signer's leaves under their entropy-keyed tag, written by
      // the first open; it pins the file layout and the tag label.
      {"vault/signer.tree",
       "9911927e4cb3dd38395cf6f87a97a5753bdb5c1817e4c3849f1c51f4638947ae"},
      {"vault/state.log",
       "d17c3b4b4646d416672df6683c0d381114f7747aa77933019e3443ef36acbf91"},
  };
  EXPECT_EQ(hashes, kPinned);
}

TEST(CreatePinTest, StateAndAuditLogsAfterFixedGrantSequence) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  const VaultOptions options = PinOptions(&env, &clock);
  auto opened = Vault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Vault> vault = std::move(opened).value();

  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
          .ok());
  for (const char* dr : {"dr-a", "dr-b", "dr-c", "dr-d", "dr-e"}) {
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin-r", {dr, Role::kPhysician, dr}).ok());
  }
  for (const char* pat : {"pat-p", "pat-q"}) {
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin-r", {pat, Role::kPatient, pat}).ok());
  }
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"aud-x", Role::kAuditor, "X"})
          .ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-p").ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-q").ok());
  auto shredded = vault->CreateRecord("dr-a", "pat-p", "text/plain",
                                      "referral letter", {}, "short-1y");
  auto kept = vault->CreateRecord("dr-a", "pat-p", "text/plain",
                                  "care plan", {}, "hipaa-6y");
  auto other = vault->CreateRecord("dr-a", "pat-q", "text/plain",
                                   "triage note", {}, "hipaa-6y");
  ASSERT_TRUE(shredded.ok() && kept.ok() && other.ok());

  // Break-glass: dr-b, outside any care relation, reads pat-q's record.
  clock.Advance(1500);
  auto bg = vault->BreakGlass("dr-b", "pat-q", "ER: unconscious", 3600000000);
  ASSERT_TRUE(bg.ok()) << bg.status().ToString();
  ASSERT_TRUE(vault->ReadRecord("dr-b", *other).ok());

  // Eleven consent grants from pat-p, each live for a decade so the
  // record-scoped ones are still live when retention lets r-1 go.
  struct Share {
    const char* grantee;
    const RecordId* record;  // null: patient-scoped
  };
  const Share shares[] = {
      {"dr-d", nullptr},    {"dr-c", nullptr},   {"dr-c", &*shredded},
      {"dr-d", &*kept},     {"pat-q", nullptr},  {"dr-e", &*kept},
      {"dr-b", &*kept},     {"dr-e", nullptr},   {"dr-b", nullptr},
      {"dr-c", &*shredded}, {"dr-e", &*shredded},
  };
  const Timestamp kDecade = 10 * 365 * 24 * 3600 * kMicrosPerSecond;
  std::vector<std::string> grant_ids;
  for (const Share& share : shares) {
    clock.Advance(1500);
    auto g = vault->GrantConsent(
        "pat-p", share.grantee,
        share.record == nullptr ? RecordId() : *share.record,
        std::string("purpose-") + share.grantee, kDecade);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    grant_ids.push_back(g->grant_id);
  }
  EXPECT_EQ(grant_ids.back(), "cg-11");

  // cg-2 (patient scope), cg-3 and cg-10 (record scope) all let dr-c
  // read r-1; the audited read names the lowest id in string order.
  clock.Advance(1500);
  ASSERT_TRUE(vault->ReadRecord("dr-c", *shredded).ok());
  clock.Advance(1500);
  ASSERT_TRUE(vault->RevokeConsent("pat-p", "cg-5").ok());

  auto listed = vault->ListConsents("pat-p", "pat-p");
  ASSERT_TRUE(listed.ok());
  std::vector<std::string> listed_ids;
  for (const ConsentGrant& g : *listed) listed_ids.push_back(g.grant_id);
  EXPECT_EQ(listed_ids,
            (std::vector<std::string>{"cg-1", "cg-10", "cg-11", "cg-2", "cg-3",
                                      "cg-4", "cg-6", "cg-7", "cg-8", "cg-9"}));

  // Past the 1-year retention: disposing r-1 revokes cg-3, cg-10 and
  // cg-11 and leaves the patient-scoped grants alone.
  clock.AdvanceYears(2);
  ASSERT_TRUE(vault->DisposeRecord("admin-r", *shredded).ok());
  EXPECT_EQ(vault->ActiveConsentCount(), 7u);

  ASSERT_TRUE(vault->SyncAll().ok());
  vault.reset();
  opened = Vault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault = std::move(opened).value();
  EXPECT_EQ(vault->ActiveConsentCount(), 7u);
  // After replay: dr-b reads r-2 under cg-7 or cg-9 (cg-7 wins), and
  // the next id continues past every replayed one.
  clock.Advance(1500);
  ASSERT_TRUE(vault->ReadRecord("dr-b", *kept).ok());
  clock.Advance(1500);
  auto fresh = vault->GrantConsent("pat-p", "dr-c", *kept, "follow-up",
                                   kDecade);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->grant_id, "cg-12");

  // The grant each delegated read names, and the disposal's revoke
  // order, read back from the trail.
  auto trail = vault->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  std::vector<std::string> via;
  std::vector<std::string> shred_revokes;
  for (const AuditEvent& e : *trail) {
    const size_t at = e.details.find(" via=");
    if (e.action == AuditAction::kRead && at != std::string::npos) {
      via.push_back(e.actor + e.details.substr(at));
    }
    if (e.action == AuditAction::kConsentRevoke &&
        e.details.find("reason=crypto-shred") != std::string::npos) {
      shred_revokes.push_back(e.details.substr(e.details.find("grant=")));
    }
  }
  EXPECT_EQ(via, (std::vector<std::string>{
                     "dr-b via=break-glass grant=bg-1",
                     "dr-c via=consent grant=cg-10",
                     "dr-b via=consent grant=cg-7"}));
  EXPECT_EQ(shred_revokes, (std::vector<std::string>{
                               "grant=cg-10 reason=crypto-shred",
                               "grant=cg-11 reason=crypto-shred",
                               "grant=cg-3 reason=crypto-shred"}));
  ASSERT_TRUE(vault->SyncAll().ok());

  std::map<std::string, std::string> hashes;
  HashTree(&env, "vault", &hashes);
  EXPECT_EQ(hashes["vault/audit.log"],
            "c81525d0f0c25aac90efa724918bb63c6763031a3005f1432b66349fc4eb780b");
  EXPECT_EQ(hashes["vault/state.log"],
            "2e71eee8e370f0365471e649e1d29b9b3864875822e742a1eb6f54c49e77b4e3");
}

}  // namespace
}  // namespace medvault::core
