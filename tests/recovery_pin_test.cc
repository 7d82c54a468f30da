// Known-answer pin of crash recovery on a MemEnv vault driven by a
// fixed ManualClock.
//
// One crash image reaches every branch of the recovery pass at once:
//   - r-1's key was destroyed but its meta never flipped
//     (disposal-completed);
//   - r-2's live key never reached keys.db (key-lost, and its one
//     catalog entry is dropped in the same pass);
//   - every catalog entry of r-3 is gone (versions-lost);
//   - r-4's second version is gone from the catalog (latest-lowered-to-1);
//   - r-99 has a key and a catalog entry but no committed meta
//     (orphan-keys-removed=1; with r-2's, catalog-refs-dropped=2);
//   - record-scoped consent grants name r-1, r-2 and r-3
//     (consent-revoked).
// The test pins the kRecovery details string (so the order of the
// actions too), the bytes of the files recovery rewrites or appends to,
// the content root, and after a second open the audit root, each
// record's trail and the patient's disclosure report. Recovery converges
// in one pass: the second and third opens log no kRecovery event. A
// change to how the open path replays or reconciles must leave all of
// them unchanged.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hex.h"
#include "core/vault.h"
#include "crypto/sha256.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

VaultOptions PinOptions(storage::MemEnv* env, ManualClock* clock) {
  VaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "recovery-pin-entropy";
  options.signer_height = 4;
  return options;
}

std::unique_ptr<Vault> OpenOrDie(const VaultOptions& options) {
  auto opened = Vault::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

std::string FileSha(storage::MemEnv* env, const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(storage::ReadFileToString(env, path, &bytes).ok()) << path;
  return HexEncode(crypto::Sha256Digest(bytes));
}

/// Rewrites the framed log at `path` keeping only the records `keep`
/// accepts: the crash image a lost tail or a lost entry leaves behind.
void FilterLog(storage::MemEnv* env, const std::string& path,
               const std::function<bool(const Slice&)>& keep) {
  std::vector<std::string> kept;
  {
    std::unique_ptr<storage::SequentialFile> src;
    ASSERT_TRUE(env->NewSequentialFile(path, &src).ok());
    storage::log::Reader reader(std::move(src));
    std::string record;
    while (reader.ReadRecord(&record)) {
      if (keep(record)) kept.push_back(record);
    }
    ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  }
  std::unique_ptr<storage::WritableFile> dest;
  ASSERT_TRUE(env->NewWritableFile(path, &dest).ok());
  storage::log::Writer writer(std::move(dest));
  for (const std::string& record : kept) {
    ASSERT_TRUE(writer.AddRecord(record).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
}

/// The record id that leads a catalog.log entry (after `skip` bytes).
std::string LeadingId(const Slice& record, size_t skip) {
  if (record.size() < skip) return "";
  Slice in(record.data() + skip, record.size() - skip);
  Slice id;
  return GetLengthPrefixed(&in, &id) ? id.ToString() : "";
}

/// The version number of a catalog.log entry.
uint32_t CatalogVersion(const Slice& record) {
  Slice in = record;
  Slice id;
  uint32_t version = 0;
  if (!GetLengthPrefixed(&in, &id) || !GetVarint32(&in, &version)) return 0;
  return version;
}

std::string JoinSeqs(const std::vector<uint64_t>& seqs) {
  std::string out;
  for (uint64_t seq : seqs) {
    if (!out.empty()) out += ",";
    out += std::to_string(seq);
  }
  return out;
}

/// The details of every kRecovery event in the vault's audit trail.
std::vector<std::string> RecoveryDetails(Vault* vault) {
  std::vector<std::string> out;
  auto trail = vault->ReadAuditTrail("aud-x", "");
  EXPECT_TRUE(trail.ok()) << trail.status().ToString();
  if (!trail.ok()) return out;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kRecovery) out.push_back(e.details);
  }
  return out;
}

TEST(RecoveryPinTest, EveryRecoveryBranchInOneCrashImage) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  const VaultOptions options = PinOptions(&env, &clock);
  std::unique_ptr<Vault> vault = OpenOrDie(options);
  ASSERT_NE(vault, nullptr);

  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
          .ok());
  for (const char* dr : {"dr-a", "dr-b", "dr-c"}) {
    ASSERT_TRUE(
        vault->RegisterPrincipal("admin-r", {dr, Role::kPhysician, dr}).ok());
  }
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"pat-p", Role::kPatient, "P"})
          .ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"aud-x", Role::kAuditor, "X"})
          .ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-p").ok());

  std::vector<RecordId> ids;
  for (int i = 1; i <= 6; ++i) {
    clock.Advance(1500);
    auto id = vault->CreateRecord("dr-a", "pat-p", "text/plain",
                                  "note " + std::to_string(i), {"ward"},
                                  "hipaa-6y");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_EQ(ids, (std::vector<RecordId>{"r-1", "r-2", "r-3", "r-4", "r-5",
                                        "r-6"}));
  clock.Advance(1500);
  ASSERT_TRUE(vault
                  ->CorrectRecord("dr-a", "r-4", "note 4b", "amended",
                                  {"ward"})
                  .ok());

  // Record-scoped grants on the records recovery will tombstone, one on
  // a record that survives, and one patient-scoped grant.
  const Timestamp kYear = 365LL * 24 * 3600 * kMicrosPerSecond;
  for (const char* record : {"r-1", "r-2", "r-3", "r-5", ""}) {
    clock.Advance(1500);
    auto g = vault->GrantConsent("pat-p", "dr-c", record, "second opinion",
                                 kYear);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
  }
  clock.Advance(1500);
  ASSERT_TRUE(vault->BreakGlass("dr-b", "pat-p", "ER", kYear).ok());
  for (const char* record : {"r-1", "r-4", "r-5"}) {
    clock.Advance(1500);
    ASSERT_TRUE(vault->ReadRecord("dr-b", record).ok());
  }
  clock.Advance(1500);
  ASSERT_TRUE(vault->ReadRecord("dr-c", "r-5").ok());

  // r-1: the key is shredded, the crash lands before the meta flip.
  ASSERT_TRUE(vault->keystore()->DestroyKey("r-1").ok());
  // r-99: a create whose key and version landed but whose meta did not.
  ASSERT_TRUE(vault->keystore()->CreateKey("r-99").ok());
  ASSERT_TRUE(vault->versions()
                  ->AppendVersion("r-99", "dr-a", "text/plain", "", "lost",
                                  clock.Now())
                  .ok());
  ASSERT_TRUE(vault->SyncAll().ok());
  vault.reset();

  // r-2's key entry and r-3's catalog entries are lost; r-4 keeps only
  // its first version.
  FilterLog(&env, "vault/keys.db",
            [](const Slice& r) { return LeadingId(r, 1) != "r-2"; });
  FilterLog(&env, "vault/catalog.log", [](const Slice& r) {
    const std::string id = LeadingId(r, 0);
    return id != "r-3" && !(id == "r-4" && CatalogVersion(r) > 1);
  });

  clock.Advance(1500);
  vault = OpenOrDie(options);
  ASSERT_NE(vault, nullptr);
  const std::string kFirstRecovery =
      "crash-recovery: catalog-refs-dropped=2 r-1:disposal-completed"
      " r-2:key-lost r-3:versions-lost r-4:latest-lowered-to-1"
      " orphan-keys-removed=1 cg-1:consent-revoked cg-2:consent-revoked"
      " cg-3:consent-revoked";
  EXPECT_EQ(RecoveryDetails(vault.get()),
            (std::vector<std::string>{kFirstRecovery}));
  EXPECT_EQ(FileSha(&env, "vault/state.log"),
            "0ac4bec9e77dedcb4fe020dbb4793bc1b9201cf146b87fc1fa4975ac1f9ac1bf");
  EXPECT_EQ(FileSha(&env, "vault/keys.db"),
            "d1e58cba95866d789c99767ebfaba8b0793a84c83bb058148b44cad92180be2a");
  EXPECT_EQ(FileSha(&env, "vault/catalog.log"),
            "648eceb172976f531b58de61fa24121ca701d576a3a55704612bb94379e1b0f7");
  EXPECT_EQ(HexEncode(vault->ContentRoot()),
            "162654299ae895ff030a61e88794b42a39a9c153ff0a66c8610fa367f73d7140");
  ASSERT_TRUE(vault->SyncAll().ok());
  vault.reset();

  // The second open replays the repaired files and finds nothing to
  // repair: the first pass already dropped key-lost r-2's catalog entry.
  clock.Advance(1500);
  vault = OpenOrDie(options);
  ASSERT_NE(vault, nullptr);
  EXPECT_EQ(RecoveryDetails(vault.get()),
            (std::vector<std::string>{kFirstRecovery}));
  EXPECT_EQ(HexEncode(vault->audit()->Root()),
            "a7f10895f4e8774a9fddbda83a72e87bd3fb98f26655fe5840e7291e13cd6cf1");
  std::string seqs;
  for (const char* record : {"r-1", "r-2", "r-3", "r-4", "r-5", "r-6",
                             "r-99"}) {
    seqs += std::string(record) + ":" +
            JoinSeqs(vault->audit()->SeqsForRecord(record)) + " ";
  }
  EXPECT_EQ(seqs,
            "r-1:7,14,20 r-2:8,15 r-3:9,16 r-4:10,13,21 r-5:11,17,22,23 "
            "r-6:12 r-99: ");
  auto report = vault->AccountingOfDisclosures("pat-p", "pat-p");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string disclosures;
  for (const AuditEvent& e : *report) {
    disclosures += std::to_string(e.seq) + " " + e.actor + " " +
                   AuditActionName(e.action) + " " + e.record_id + " " +
                   e.details + "\n";
  }
  EXPECT_EQ(disclosures,
            "14 pat-p consent-grant r-1 patient=pat-p grantee=dr-c grant=cg-1"
            " scope=record purpose=second opinion\n"
            "15 pat-p consent-grant r-2 patient=pat-p grantee=dr-c grant=cg-2"
            " scope=record purpose=second opinion\n"
            "16 pat-p consent-grant r-3 patient=pat-p grantee=dr-c grant=cg-3"
            " scope=record purpose=second opinion\n"
            "17 pat-p consent-grant r-5 patient=pat-p grantee=dr-c grant=cg-4"
            " scope=record purpose=second opinion\n"
            "18 pat-p consent-grant  patient=pat-p grantee=dr-c grant=cg-5"
            " scope=patient purpose=second opinion\n"
            "19 dr-b break-glass  patient=pat-p grant=bg-1 justification=ER\n"
            "20 dr-b read r-1 ok via=break-glass grant=bg-1\n"
            "21 dr-b read r-4 ok via=break-glass grant=bg-1\n"
            "22 dr-b read r-5 ok via=break-glass grant=bg-1\n"
            "23 dr-c read r-5 ok via=consent grant=cg-4\n");
  EXPECT_TRUE(vault->VerifyEverything().ok());
  ASSERT_TRUE(vault->SyncAll().ok());
  vault.reset();

  // Nor does the third.
  vault = OpenOrDie(options);
  ASSERT_NE(vault, nullptr);
  EXPECT_EQ(RecoveryDetails(vault.get()).size(), 1u);
}

}  // namespace
}  // namespace medvault::core
