// Media-fault tests: scrub localization (segment frames, record logs,
// orphans, missing artifacts), read-repair from a backup chain, the
// distinct broken-chain verdict, degraded sharded opens with
// quarantine/rejoin, and RetryEnv's bounded absorption of transient
// I/O faults.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "core/backup.h"
#include "core/scrub.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "storage/fault_env.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"
#include "storage/retry_env.h"

namespace medvault::core {
namespace {

// ---------------------------------------------------------------------
// Raw segment-frame scanning.

std::string Frame(const std::string& payload) {
  std::string f;
  PutFixed32(&f, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(&f, static_cast<uint32_t>(payload.size()));
  f += payload;
  return f;
}

TEST(ScrubSegmentDataTest, CleanFramesScanClean) {
  std::string data = Frame("alpha") + Frame("beta-payload");
  FileScrubResult out;
  Scrubber::ScrubSegmentData(Slice(data), /*is_active=*/false, &out);
  EXPECT_EQ(out.verdict, ScrubVerdict::kClean);
  EXPECT_TRUE(out.corrupt_ranges.empty());
}

TEST(ScrubSegmentDataTest, FlippedPayloadByteLocalizedToItsFrame) {
  const std::string first = Frame("alpha");
  std::string data = first + Frame("beta-payload");
  data[first.size() + 8 + 2] ^= 0x01;  // one bit in the second payload
  FileScrubResult out;
  Scrubber::ScrubSegmentData(Slice(data), /*is_active=*/false, &out);
  ASSERT_EQ(out.verdict, ScrubVerdict::kCorrupt);
  ASSERT_EQ(out.corrupt_ranges.size(), 1u);
  // The damaged range is exactly the second frame — the first survived.
  EXPECT_EQ(out.corrupt_ranges[0].offset, first.size());
  EXPECT_EQ(out.corrupt_ranges[0].length, 8 + std::string("beta-payload").size());
}

TEST(ScrubSegmentDataTest, TornTailLegalOnlyOnActiveSegment) {
  const std::string full = Frame("complete");
  std::string torn = full + Frame("never-finished").substr(0, 13);

  FileScrubResult active;
  Scrubber::ScrubSegmentData(Slice(torn), /*is_active=*/true, &active);
  EXPECT_EQ(active.verdict, ScrubVerdict::kClean);
  EXPECT_NE(active.detail.find("torn"), std::string::npos);

  // A sealed segment was closed behind a durability barrier: the same
  // tail is media damage, localized to the bytes past the last frame.
  FileScrubResult sealed;
  Scrubber::ScrubSegmentData(Slice(torn), /*is_active=*/false, &sealed);
  ASSERT_EQ(sealed.verdict, ScrubVerdict::kCorrupt);
  ASSERT_EQ(sealed.corrupt_ranges.size(), 1u);
  EXPECT_EQ(sealed.corrupt_ranges[0].offset, full.size());
}

// ---------------------------------------------------------------------
// Streamed against whole-image scans. ScrubVaultDir reads each file
// through a bounded window of 256 KiB; these files are larger than
// that and put frames, records and damage across its edges, so any
// slip in the window bookkeeping shows up as a verdict, range or detail
// that differs from the whole-image scanners.

constexpr uint64_t kScrubWindow = 256 * 1024;

// Deterministic payload of `n` bytes, distinct per `tag`.
std::string Payload(size_t n, int tag) {
  std::string p(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<char>('a' + (i * 7 + static_cast<size_t>(tag)) % 26);
  }
  return p;
}

// Segment image holding one frame per entry of `sizes`.
std::string SegmentImage(const std::vector<size_t>& sizes) {
  std::string out;
  for (size_t i = 0; i < sizes.size(); ++i) {
    out += Frame(Payload(sizes[i], static_cast<int>(i)));
  }
  return out;
}

// Writes `sizes.size()` records through log::Writer into `fname` and
// returns the file's bytes.
std::string LogImage(storage::Env* env, const std::string& fname,
                     const std::vector<size_t>& sizes) {
  std::unique_ptr<storage::WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile(fname, &file).ok());
  storage::log::Writer writer(std::move(file));
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_TRUE(
        writer.AddRecord(Payload(sizes[i], static_cast<int>(i))).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  std::string data;
  EXPECT_TRUE(storage::ReadFileToString(env, fname, &data).ok());
  return data;
}

void Put(storage::Env* env, const std::string& fname,
         const std::string& data) {
  ASSERT_TRUE(storage::WriteStringToFile(env, Slice(data), fname, false).ok());
}

void ExpectSameScan(const FileScrubResult& streamed,
                    const FileScrubResult& whole, uint64_t size) {
  EXPECT_EQ(streamed.verdict, whole.verdict) << streamed.path;
  EXPECT_EQ(streamed.detail, whole.detail) << streamed.path;
  EXPECT_EQ(streamed.bytes, size) << streamed.path;
  ASSERT_EQ(streamed.corrupt_ranges.size(), whole.corrupt_ranges.size())
      << streamed.path;
  for (size_t i = 0; i < whole.corrupt_ranges.size(); ++i) {
    EXPECT_EQ(streamed.corrupt_ranges[i].offset,
              whole.corrupt_ranges[i].offset)
        << streamed.path << " range " << i;
    EXPECT_EQ(streamed.corrupt_ranges[i].length,
              whole.corrupt_ranges[i].length)
        << streamed.path << " range " << i;
  }
}

TEST(ScrubStreamTest, StreamedScanMatchesWholeImageScan) {
  storage::MemEnv env;
  const std::string dir = "v";
  ASSERT_TRUE(env.CreateDirIfMissing(dir).ok());
  ASSERT_TRUE(env.CreateDirIfMissing(dir + "/segments").ok());
  const uint64_t w = kScrubWindow;

  // seg 1, sealed: 260 frames of 1008 bytes and one of 60 bytes end at
  // w - 4, so the next header straddles the window edge. A frame
  // larger than the window follows, then small frames again.
  std::vector<size_t> sizes1(260, 1000);
  sizes1.push_back(52);
  sizes1.push_back(900);
  sizes1.push_back(300 * 1024);
  sizes1.insert(sizes1.end(), 300, 1000);
  std::string seg1 = SegmentImage(sizes1);
  ASSERT_GT(seg1.size(), 2 * w);

  // seg 2, sealed: a payload straddles the edge and its byte at the
  // edge is flipped; past one clean frame, the frame larger than the
  // window has a flip two windows in; the file ends in a torn frame.
  std::vector<size_t> sizes2(259, 1000);
  sizes2.push_back(1500);  // starts at 259 * 1008, crosses w
  sizes2.push_back(1000);
  sizes2.push_back(400 * 1024);
  sizes2.insert(sizes2.end(), 50, 1000);
  std::string seg2 = SegmentImage(sizes2);
  const uint64_t straddler = 259 * 1008;
  const uint64_t large = straddler + 1508 + 1008;
  ASSERT_LT(straddler + 8, w);
  ASSERT_GT(straddler + 8 + 1500, w);
  seg2[w] ^= 0x10;
  seg2[large + 8 + 300 * 1024] ^= 0x01;
  seg2.resize(seg2.size() - 500);

  // seg 3, sealed: a partial header trails the last whole frame.
  std::string seg3 = SegmentImage(std::vector<size_t>(300, 1000));
  seg3 += Frame("tail").substr(0, 5);

  // seg 4, the active one: a torn frame at EOF is legal there.
  std::string seg4 = SegmentImage(std::vector<size_t>(280, 1000));
  seg4 += Frame(Payload(2000, 9)).substr(0, 1200);

  Put(&env, dir + "/segments/seg-00000001", seg1);
  Put(&env, dir + "/segments/seg-00000002", seg2);
  Put(&env, dir + "/segments/seg-00000003", seg3);
  Put(&env, dir + "/segments/seg-00000004", seg4);

  // audit.log: records of up to 20 KiB, fragmented across blocks, until
  // the block before the window edge; then one that ends 3 bytes short
  // of the edge, so the writer pads those 3 bytes, and one of them is
  // set non-zero. The record right after the edge has a flipped byte.
  std::vector<size_t> log_sizes;
  uint64_t end = 0;
  while (end < w - storage::log::kBlockSize + 64) {
    log_sizes.push_back(500 + 1700 * log_sizes.size() % 19000);
    storage::MemEnv probe;
    end = LogImage(&probe, "p", log_sizes).size();
  }
  ASSERT_LE(end + storage::log::kHeaderSize + 3, w);
  log_sizes.push_back(w - end - storage::log::kHeaderSize - 3);
  for (int i = 0; i < 40; ++i) log_sizes.push_back(500 + 977 * i % 30000);
  std::string audit = LogImage(&env, dir + "/audit.log", log_sizes);
  ASSERT_GT(audit.size(), 2 * w);
  ASSERT_EQ(audit[w - 2], '\0');
  audit[w - 2] = 'x';
  audit[w + storage::log::kHeaderSize + 5] ^= 0x04;
  Put(&env, dir + "/audit.log", audit);

  // state.log: clean, larger than the window, torn at EOF.
  std::vector<size_t> state_sizes;
  for (int i = 0; i < 30; ++i) state_sizes.push_back(700 + 3100 * i % 50000);
  std::string state = LogImage(&env, dir + "/state.log", state_sizes);
  ASSERT_GT(state.size(), w);
  state.resize(state.size() - 100);
  Put(&env, dir + "/state.log", state);

  // The other core logs: small and clean.
  for (const char* name : {"catalog.log", "index.log", "provenance.log",
                           "keys.db"}) {
    LogImage(&env, dir + "/" + name, {10, 20, 30});
  }

  auto report = Scrubber::ScrubVaultDir(&env, dir, 7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_scanned, 10u);

  const std::map<std::string, std::string> segments = {
      {"segments/seg-00000001", seg1},
      {"segments/seg-00000002", seg2},
      {"segments/seg-00000003", seg3},
      {"segments/seg-00000004", seg4},
  };
  uint64_t bytes = 0;
  for (const auto& [rel, image] : segments) {
    const FileScrubResult* got = report->Find(rel);
    ASSERT_NE(got, nullptr) << rel;
    FileScrubResult want;
    Scrubber::ScrubSegmentData(Slice(image),
                               rel == "segments/seg-00000004", &want);
    ExpectSameScan(*got, want, image.size());
    bytes += image.size();
  }
  for (const std::string& rel : Scrubber::ExpectedArtifacts()) {
    const FileScrubResult* got = report->Find(rel);
    ASSERT_NE(got, nullptr) << rel;
    std::string image;
    ASSERT_TRUE(storage::ReadFileToString(&env, dir + "/" + rel, &image).ok());
    FileScrubResult want;
    Scrubber::ScrubLogData(Slice(image), &want);
    ExpectSameScan(*got, want, image.size());
    bytes += image.size();
  }
  EXPECT_EQ(report->bytes_scanned, bytes);

  // The images hold the damage they were built to hold.
  EXPECT_EQ(report->Find("segments/seg-00000001")->verdict,
            ScrubVerdict::kClean);
  const FileScrubResult* s2 = report->Find("segments/seg-00000002");
  ASSERT_EQ(s2->corrupt_ranges.size(), 3u) << report->Summary();
  EXPECT_EQ(s2->corrupt_ranges[0].offset, straddler);
  EXPECT_EQ(s2->corrupt_ranges[1].offset, large);
  EXPECT_EQ(s2->corrupt_ranges[1].length, 8 + 400 * 1024);
  EXPECT_EQ(report->Find("segments/seg-00000003")->verdict,
            ScrubVerdict::kCorrupt);
  const FileScrubResult* s4 = report->Find("segments/seg-00000004");
  EXPECT_EQ(s4->verdict, ScrubVerdict::kClean);
  EXPECT_EQ(s4->detail, "torn tail frame");
  // The padding and the record after it are contiguous: one range.
  const FileScrubResult* a = report->Find("audit.log");
  ASSERT_EQ(a->corrupt_ranges.size(), 1u) << report->Summary();
  EXPECT_EQ(a->corrupt_ranges[0].offset, w - 3);
  EXPECT_EQ(a->corrupt_ranges[0].length, 3 + storage::log::kHeaderSize + 500);
  const FileScrubResult* st = report->Find("state.log");
  EXPECT_EQ(st->verdict, ScrubVerdict::kClean);
  EXPECT_EQ(st->detail, "torn tail record");
  EXPECT_EQ(report->corrupt_files, 3u);
}

// ---------------------------------------------------------------------
// Shared corruption helpers.

// Relative path (under `dir`) of the largest segment file.
std::string FindSegment(storage::Env* env, const std::string& dir) {
  std::vector<std::string> kids;
  EXPECT_TRUE(env->GetChildren(dir + "/segments", &kids).ok());
  std::string best;
  uint64_t best_size = 0;
  for (const std::string& name : kids) {
    uint64_t size = 0;
    if (env->GetFileSize(dir + "/segments/" + name, &size).ok() &&
        size >= best_size) {
      best = "segments/" + name;
      best_size = size;
    }
  }
  EXPECT_FALSE(best.empty());
  return best;
}

void XorByte(storage::Env* env, const std::string& path, uint64_t offset) {
  std::string data;
  ASSERT_TRUE(storage::ReadFileToString(env, path, &data).ok());
  ASSERT_LT(offset, data.size());
  const char flipped = static_cast<char>(data[offset] ^ 0x40);
  ASSERT_TRUE(env->UnsafeOverwrite(path, offset, Slice(&flipped, 1)).ok());
}

// path -> bytes for every file under `dir` (one directory level deep,
// which is all a vault has).
std::map<std::string, std::string> SnapshotDir(storage::Env* env,
                                               const std::string& dir) {
  std::map<std::string, std::string> out;
  std::vector<std::string> kids;
  if (!env->GetChildren(dir, &kids).ok()) return out;
  for (const std::string& child : kids) {
    std::string data;
    if (storage::ReadFileToString(env, dir + "/" + child, &data).ok()) {
      out[child] = std::move(data);
      continue;
    }
    std::vector<std::string> nested;
    if (env->GetChildren(dir + "/" + child, &nested).ok()) {
      for (const std::string& inner : nested) {
        std::string inner_data;
        if (storage::ReadFileToString(env, dir + "/" + child + "/" + inner,
                                      &inner_data)
                .ok()) {
          out[child + "/" + inner] = std::move(inner_data);
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Vault-level scrub + repair fixture.

class ScrubTest : public ::testing::Test {
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
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin-r",
                                        {"aud-x", Role::kAuditor, "X"})
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
    options.entropy = "scrub-test-entropy";
    options.signer_height = 4;
    options.metrics = &registry_;
    auto vault = Vault::Open(options);
    EXPECT_TRUE(vault.ok()) << vault.status().ToString();
    return std::move(vault).value();
  }

  RecordId CreateSample(const std::string& content) {
    auto id = vault_->CreateRecord("dr-a", "pat-p", "text/plain", content,
                                   {"scrub"}, "hipaa-6y");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ValueOr("");
  }

  static int CountRestoreEvents(const std::vector<AuditEvent>& trail) {
    int n = 0;
    for (const AuditEvent& e : trail) {
      if (e.action == AuditAction::kRestore) n++;
    }
    return n;
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  obs::MetricsRegistry registry_;
  std::unique_ptr<Vault> vault_;
};

TEST_F(ScrubTest, CleanVaultScrubsClean) {
  CreateSample("routine note");
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto report = vault_->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_TRUE(report->structurally_clean());
  // All six core artifacts plus at least one segment were walked.
  EXPECT_GE(report->files_scanned, 7u);
  EXPECT_GT(report->bytes_scanned, 0u);
  EXPECT_EQ(report->corrupt_files, 0u);

  const Vault::ScrubStats last = vault_->LastScrub();
  EXPECT_TRUE(last.ran);
  EXPECT_TRUE(last.clean);
  EXPECT_EQ(last.files_scanned, report->files_scanned);
  EXPECT_EQ(registry_.GetCounter("vault.scrub.runs")->Value(), 1u);
  EXPECT_EQ(registry_.GetCounter("vault.scrub.dirty")->Value(), 0u);
}

TEST_F(ScrubTest, ScrubLocalizesSegmentBitFlip) {
  CreateSample(std::string(128, 'a'));
  ASSERT_TRUE(vault_->SyncAll().ok());
  const std::string seg = FindSegment(&env_, "vault");
  XorByte(&env_, "vault/" + seg, /*offset=*/8 + 3);  // payload byte

  auto report = vault_->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->structurally_clean());
  const FileScrubResult* hit = report->Find(seg);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->verdict, ScrubVerdict::kCorrupt);
  ASSERT_FALSE(hit->corrupt_ranges.empty());
  EXPECT_EQ(hit->corrupt_ranges[0].offset, 0u);  // damage is in frame 1
  // Every other artifact still reads clean — the damage was localized.
  for (const FileScrubResult& f : report->files) {
    if (f.path != seg) {
      EXPECT_NE(f.verdict, ScrubVerdict::kCorrupt) << f.path;
    }
  }
  EXPECT_EQ(registry_.GetCounter("vault.scrub.dirty")->Value(), 1u);
  EXPECT_FALSE(vault_->LastScrub().clean);
}

TEST_F(ScrubTest, OfflineScrubFlagsLogDamageOrphansAndMissing) {
  CreateSample("x");
  ASSERT_TRUE(vault_->SyncAll().ok());
  vault_.reset();  // offline: scrub must work without opening the vault

  // Mid-log bit rot in the state log, a crash-leftover temp file, and a
  // deleted provenance log.
  XorByte(&env_, "vault/state.log", /*offset=*/10);
  ASSERT_TRUE(storage::WriteStringToFile(&env_, Slice("partial"),
                                         "vault/upload.tmp", false)
                  .ok());
  ASSERT_TRUE(env_.RemoveFile("vault/provenance.log").ok());

  auto report = Scrubber::ScrubVaultDir(&env_, "vault", 42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->structurally_clean());

  const FileScrubResult* state = report->Find("state.log");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->verdict, ScrubVerdict::kCorrupt);
  ASSERT_FALSE(state->corrupt_ranges.empty());
  EXPECT_EQ(state->corrupt_ranges[0].offset, 0u);  // first physical record

  const FileScrubResult* orphan = report->Find("upload.tmp");
  ASSERT_NE(orphan, nullptr);
  EXPECT_EQ(orphan->verdict, ScrubVerdict::kOrphan);
  EXPECT_EQ(report->orphan_files, 1u);

  const FileScrubResult* missing = report->Find("provenance.log");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->verdict, ScrubVerdict::kMissing);

  // Damaged = corrupt + missing; orphans are listed separately.
  auto damaged = report->DamagedFiles();
  EXPECT_EQ(damaged.size(), 2u);
  EXPECT_EQ(report->OrphanFiles(), std::vector<std::string>{"upload.tmp"});
}

TEST_F(ScrubTest, RepairRestoresOnlyDamagedFilesByteIdentical) {
  RecordId r1 = CreateSample("original content");
  CreateSample("second record");
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto full = BackupManager::Backup(vault_.get(), "admin-r", &env_, "bk-full");
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(
      vault_->CorrectRecord("dr-a", r1, "amended content", "fix", {}).ok());
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto incr = BackupManager::BackupIncremental(vault_.get(), "admin-r", &env_,
                                               "bk-incr", {{"bk-full", *full}});
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  vault_.reset();

  const std::map<std::string, std::string> before = SnapshotDir(&env_, "vault");
  const std::string seg = FindSegment(&env_, "vault");
  XorByte(&env_, "vault/" + seg, /*offset=*/8 + 5);
  ASSERT_TRUE(storage::WriteStringToFile(&env_, Slice("junk"),
                                         "vault/stale.tmp", false)
                  .ok());

  auto report = Scrubber::ScrubVaultDir(&env_, "vault", 42);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->structurally_clean());

  auto chain = BackupManager::LoadChain(&env_, {"bk-full", "bk-incr"});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_TRUE(BackupManager::VerifyChain(&env_, *chain).ok());
  auto summary = BackupManager::Repair(&env_, *chain, &env_, "vault", *report);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->restored, std::vector<std::string>{seg});
  EXPECT_EQ(summary->removed_orphans, std::vector<std::string>{"stale.tmp"});
  EXPECT_TRUE(summary->unrepairable.empty());
  EXPECT_TRUE(summary->verified_clean);
  // signer.tree is derived, not an orphan: repair leaves it in place.
  EXPECT_TRUE(env_.FileExists("vault/signer.tree"));

  // Every vault file — the repaired one included — is byte-identical to
  // its pre-damage state; repair touched nothing else.
  EXPECT_EQ(SnapshotDir(&env_, "vault"), before);

  vault_ = OpenVault(&env_, "vault");
  EXPECT_TRUE(vault_->VerifyEverything().ok());
  EXPECT_EQ(vault_->ReadRecord("dr-a", r1)->plaintext, "amended content");

  // The repair lands in the audit trail as exactly one kRestore event.
  ASSERT_TRUE(
      BackupManager::AuditRepair(vault_.get(), "admin-r", *summary).ok());
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  EXPECT_EQ(CountRestoreEvents(*trail), 1);
}

TEST_F(ScrubTest, RepairReportsFilesTheChainCannotCover) {
  CreateSample("backed up");
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto full = BackupManager::Backup(vault_.get(), "admin-r", &env_, "bk-full");
  ASSERT_TRUE(full.ok());

  // A segment born after the last backup is damaged: no chain link has
  // it, so repair must say so instead of silently "succeeding".
  ASSERT_TRUE(vault_->versions()->segments()->SealActive().ok());
  CreateSample(std::string(64, 'n'));
  ASSERT_TRUE(vault_->SyncAll().ok());
  vault_.reset();

  const std::string young_seg = FindSegment(&env_, "vault");
  XorByte(&env_, "vault/" + young_seg, /*offset=*/8 + 1);
  auto report = Scrubber::ScrubVaultDir(&env_, "vault", 42);
  ASSERT_TRUE(report.ok());
  const FileScrubResult* hit = report->Find(young_seg);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->verdict, ScrubVerdict::kCorrupt);

  auto chain = BackupManager::LoadChain(&env_, {"bk-full"});
  ASSERT_TRUE(chain.ok());
  auto summary = BackupManager::Repair(&env_, *chain, &env_, "vault", *report);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->unrepairable, std::vector<std::string>{young_seg});
  EXPECT_FALSE(summary->verified_clean);
}

TEST_F(ScrubTest, RepairRefusesTamperedBackupBytes) {
  CreateSample("to restore");
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto full = BackupManager::Backup(vault_.get(), "admin-r", &env_, "bk-full");
  ASSERT_TRUE(full.ok());
  vault_.reset();

  const std::string seg = FindSegment(&env_, "vault");
  XorByte(&env_, "vault/" + seg, /*offset=*/8 + 2);
  // The backup copy of the same file rotted too (or was tampered with):
  // repair must refuse rather than install unverified bytes.
  XorByte(&env_, "bk-full/" + seg, /*offset=*/8 + 2);

  auto report = Scrubber::ScrubVaultDir(&env_, "vault", 42);
  ASSERT_TRUE(report.ok());
  auto chain = BackupManager::LoadChain(&env_, {"bk-full"});
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(BackupManager::Repair(&env_, *chain, &env_, "vault", *report)
                  .status()
                  .IsTamperDetected());
}

TEST_F(ScrubTest, LoadChainDetectsDeletedMiddleIncremental) {
  RecordId r1 = CreateSample("v1");
  ASSERT_TRUE(vault_->SyncAll().ok());
  auto full = BackupManager::Backup(vault_.get(), "admin-r", &env_, "c0");
  ASSERT_TRUE(full.ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(vault_->CorrectRecord("dr-a", r1, "v2", "fix", {}).ok());
  auto i1 = BackupManager::BackupIncremental(vault_.get(), "admin-r", &env_,
                                             "c1", {{"c0", *full}});
  ASSERT_TRUE(i1.ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(vault_->CorrectRecord("dr-a", r1, "v3", "fix", {}).ok());
  auto i2 = BackupManager::BackupIncremental(
      vault_.get(), "admin-r", &env_, "c2", {{"c0", *full}, {"c1", *i1}});
  ASSERT_TRUE(i2.ok());

  // Intact chain loads and verifies.
  auto chain = BackupManager::LoadChain(&env_, {"c0", "c1", "c2"});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain->size(), 3u);
  EXPECT_TRUE(BackupManager::VerifyChain(&env_, *chain).ok());

  // Regression: an operator deletes the middle incremental. Loading the
  // remaining links must fail with the *distinct* broken-chain code —
  // not a generic error a restore script might retry or misreport.
  ASSERT_TRUE(env_.RemoveFile("c1/MANIFEST").ok());
  EXPECT_TRUE(BackupManager::LoadChain(&env_, {"c0", "c1", "c2"})
                  .status()
                  .IsBackupChainBroken());
  EXPECT_TRUE(BackupManager::LoadChain(&env_, {"c0", "c2"})
                  .status()
                  .IsBackupChainBroken());
  EXPECT_TRUE(BackupManager::RestoreChain(&env_, {{"c0", *full}, {"c2", *i2}},
                                          &env_, "elsewhere")
                  .IsBackupChainBroken());
  // A chain that skips the full backup is just as broken.
  EXPECT_TRUE(BackupManager::LoadChain(&env_, {"c2"})
                  .status()
                  .IsBackupChainBroken());
}

// ---------------------------------------------------------------------
// Degraded sharded opens: quarantine, serve-the-healthy, repair, rejoin.

class DegradedShardTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  ShardedVaultOptions Options(OpenMode mode) {
    ShardedVaultOptions options;
    options.env = &env_;
    options.dir = "sharded";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "degraded-test";
    options.num_shards = kShards;
    options.signer_height = 4;
    options.metrics = &registry_;
    options.ingest_threads = 1;
    options.open_mode = mode;
    return options;
  }

  // Opens strict, registers principals, writes one record per patient
  // (16 patients cover all four shards), syncs, and leaves the vault in
  // vault_.
  void BuildPopulatedVault() {
    auto opened = ShardedVault::Open(Options(OpenMode::kStrict));
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
                                        {"aud-x", Role::kAuditor, "X"})
                    .ok());
    for (int p = 0; p < 16; ++p) {
      const std::string pat = Patient(p);
      ASSERT_TRUE(
          vault_->RegisterPrincipal("admin-r", {pat, Role::kPatient, pat})
              .ok());
      ASSERT_TRUE(vault_->AssignCare("admin-r", "dr-a", pat).ok());
      auto id = vault_->CreateRecord("dr-a", pat, "text/plain",
                                     "note for " + pat, {"ward"}, "hipaa-6y");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids_[pat] = *id;
    }
    ASSERT_TRUE(vault_->SyncAll().ok());
  }

  static std::string Patient(int p) { return "pat-" + std::to_string(p); }

  // Some patient routed to shard `k`.
  std::string PatientOnShard(uint32_t k) const {
    for (int p = 0; p < 16; ++p) {
      if (vault_->router().ShardOf(Patient(p)) == k) return Patient(p);
    }
    ADD_FAILURE() << "no patient on shard " << k;
    return "";
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  obs::MetricsRegistry registry_;
  std::unique_ptr<ShardedVault> vault_;
  std::map<std::string, RecordId> ids_;
};

TEST_F(DegradedShardTest, QuarantineMatrix) {
  BuildPopulatedVault();
  const uint32_t sick = vault_->router().ShardOf(Patient(0));
  const std::string sick_pat = Patient(0);
  const std::string sick_dir = vault_->ShardDirPath(sick);
  const uint32_t healthy = (sick + 1) % kShards;
  const std::string healthy_pat = PatientOnShard(healthy);
  vault_.reset();

  // Mid-log bit rot in the sick shard's state log: replay hits a
  // checksum mismatch, so a strict open of the whole vault fails.
  XorByte(&env_, sick_dir + "/state.log", /*offset=*/10);
  EXPECT_FALSE(ShardedVault::Open(Options(OpenMode::kStrict)).ok());

  // Degraded open quarantines the sick shard and serves the rest.
  auto opened = ShardedVault::Open(Options(OpenMode::kDegraded));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);

  EXPECT_TRUE(vault_->IsQuarantined(sick));
  EXPECT_FALSE(vault_->QuarantineReason(sick).empty());
  EXPECT_EQ(vault_->QuarantinedShards(), std::vector<uint32_t>{sick});
  EXPECT_EQ(vault_->shard(sick), nullptr);

  // The one quarantine verdict every routed operation must give.
  auto quarantined = [](const Status& s) { return s.IsUnavailable(); };
  const RecordId sick_id = ids_[sick_pat];
  const std::string sick_shard = "s" + std::to_string(sick);

  // Every routed operation against the quarantined shard fails fast with
  // the quarantine verdict; the same operations on healthy shards work.
  EXPECT_TRUE(quarantined(vault_->ReadRecord("dr-a", sick_id).status()));
  EXPECT_TRUE(
      quarantined(vault_->ReadRecordVersion("dr-a", sick_id, 1).status()));
  EXPECT_TRUE(quarantined(vault_
                              ->CreateRecord("dr-a", sick_pat, "text/plain",
                                             "more", {"ward"}, "hipaa-6y")
                              .status()));
  EXPECT_TRUE(quarantined(
      vault_->CorrectRecord("dr-a", sick_id, "fixed", "typo", {}).status()));
  EXPECT_TRUE(quarantined(vault_->RecordHistory("dr-a", sick_id).status()));
  EXPECT_TRUE(quarantined(vault_->DisposeRecord("admin-r", sick_id).status()));
  EXPECT_TRUE(
      quarantined(vault_->PlaceLegalHold("admin-r", sick_id, "litigation")));
  EXPECT_TRUE(
      quarantined(vault_->ReleaseLegalHold("admin-r", sick_id, "settled")));
  EXPECT_TRUE(
      quarantined(vault_->RequestDisposal("admin-r", sick_id).status()));
  EXPECT_TRUE(quarantined(
      vault_->ApproveDisposal("admin-r", sick_shard + ":dr-1").status()));
  EXPECT_TRUE(quarantined(vault_->GetCustodyChain("aud-x", sick_id).status()));
  EXPECT_TRUE(quarantined(vault_->ReadAuditTrail("aud-x", sick_id).status()));
  EXPECT_TRUE(quarantined(vault_->GetRecordMeta(sick_id).status()));
  EXPECT_TRUE(quarantined(vault_->VerifyRecord(sick_id)));
  EXPECT_TRUE(quarantined(
      vault_->BreakGlass("dr-a", sick_pat, "unconscious in ER", 3600).status()));
  EXPECT_TRUE(quarantined(
      vault_->GrantConsent(sick_pat, "dr-a", "", "second opinion", 3600)
          .status()));
  EXPECT_TRUE(quarantined(vault_->ListConsents(sick_pat, sick_pat).status()));
  EXPECT_TRUE(
      quarantined(vault_->RevokeConsent(sick_pat, sick_shard + "-cg-1")));
  EXPECT_TRUE(quarantined(
      vault_->AccountingOfDisclosures("aud-x", sick_pat).status()));
  EXPECT_EQ(vault_->ReadRecord("dr-a", ids_[healthy_pat])->plaintext,
            "note for " + healthy_pat);

  // A batch touching the quarantined shard is refused up front — no
  // partial cross-shard ingest into a degraded vault.
  std::vector<Vault::NewRecord> batch(2);
  batch[0].patient_id = healthy_pat;
  batch[0].content_type = "text/plain";
  batch[0].plaintext = "batch a";
  batch[0].retention_policy = "hipaa-6y";
  batch[1].patient_id = sick_pat;
  batch[1].content_type = "text/plain";
  batch[1].plaintext = "batch b";
  batch[1].retention_policy = "hipaa-6y";
  EXPECT_TRUE(quarantined(vault_->CreateRecordsBatch("dr-a", batch).status()));

  // Fan-outs skip the quarantined shard instead of failing: search
  // returns exactly the healthy shards' hits, audit still verifies.
  auto hits = vault_->SearchKeyword("dr-a", "ward");
  ASSERT_TRUE(hits.ok());
  for (const RecordId& id : *hits) {
    uint32_t shard_of = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &shard_of));
    EXPECT_NE(shard_of, sick);
  }
  size_t expected_hits = 0;
  for (int p = 0; p < 16; ++p) {
    if (vault_->router().ShardOf(Patient(p)) != sick) expected_hits++;
  }
  EXPECT_EQ(hits->size(), expected_hits);
  auto all_hits = vault_->SearchKeywordsAll("dr-a", {"ward"});
  ASSERT_TRUE(all_hits.ok()) << all_hits.status().ToString();
  EXPECT_EQ(*all_hits, *hits);
  EXPECT_EQ(vault_->ListRecordIds().size(), expected_hits);
  EXPECT_TRUE(vault_->VerifyAudit().ok());
  EXPECT_TRUE(vault_->VerifyEverything().ok());
  EXPECT_FALSE(vault_->ContentRoot().empty());
  auto checkpoints = vault_->CheckpointAudit();
  ASSERT_TRUE(checkpoints.ok()) << checkpoints.status().ToString();
  EXPECT_EQ(checkpoints->size(), kShards - 1);
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok()) << trail.status().ToString();
  for (const AuditEvent& event : *trail) {
    uint32_t shard_of = 0;
    if (ShardRouter::ShardOfRecordId(event.record_id, &shard_of)) {
      EXPECT_NE(shard_of, sick) << event.record_id;
    }
  }
  auto break_glass = vault_->ListBreakGlassEvents("aud-x");
  EXPECT_TRUE(break_glass.ok()) << break_glass.status().ToString();
  auto expired = vault_->ListExpiredRecords("admin-r");
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_TRUE(expired->empty());
  auto reclaimed = vault_->ReclaimDisposedMedia("admin-r");
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_EQ(*reclaimed, 0);
  EXPECT_EQ(vault_->ActiveConsentCount(), 0u);
  EXPECT_TRUE(vault_
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  EXPECT_TRUE(vault_->AssignCare("admin-r", "dr-b", healthy_pat).ok());
  EXPECT_TRUE(vault_->SyncAll().ok());

  // Key rotation must reach every shard or none, so it refuses outright.
  EXPECT_TRUE(
      quarantined(vault_->RotateMasterKey("admin-r", std::string(32, 'N'))));

  // Quarantine is visible to operators: health report + gauge.
  obs::HealthReport health = obs::CollectHealth(*vault_);
  ASSERT_EQ(health.shards.size(), kShards);
  EXPECT_TRUE(health.shards[sick].quarantined);
  EXPECT_FALSE(health.shards[sick].quarantine_reason.empty());
  EXPECT_FALSE(health.shards[healthy].quarantined);
  EXPECT_EQ(registry_.GetGauge("sharded.quarantined")->Value(), 1);

  // Rejoining without repairing the media is refused.
  EXPECT_TRUE(vault_->RejoinShard(sick).IsFailedPrecondition());
  EXPECT_TRUE(vault_->IsQuarantined(sick));
  // Rejoining a healthy shard is a no-op.
  EXPECT_TRUE(vault_->RejoinShard(healthy).ok());
}

// A refused key rotation must leave every shard on the old master. If
// the shards before the quarantined one rotated anyway, the vault could
// no longer be reopened with either key.
TEST_F(DegradedShardTest, RefusedRotationRotatesNoShard) {
  BuildPopulatedVault();
  const uint32_t sick = kShards - 1;
  const std::string sick_dir = vault_->ShardDirPath(sick);
  vault_.reset();
  XorByte(&env_, sick_dir + "/state.log", /*offset=*/10);

  auto opened = ShardedVault::Open(Options(OpenMode::kDegraded));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);
  ASSERT_TRUE(vault_->IsQuarantined(sick));
  EXPECT_FALSE(
      vault_->RotateMasterKey("admin-r", std::string(32, 'N')).ok());
  vault_.reset();

  // Reopened under the old master, every healthy shard still serves.
  opened = ShardedVault::Open(Options(OpenMode::kDegraded));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);
  EXPECT_EQ(vault_->QuarantinedShards(), std::vector<uint32_t>{sick});
  for (const auto& [patient, id] : ids_) {
    if (vault_->router().ShardOf(patient) == sick) continue;
    auto read = vault_->ReadRecord("dr-a", id);
    ASSERT_TRUE(read.ok()) << id << ": " << read.status().ToString();
    EXPECT_EQ(read->plaintext, "note for " + patient);
  }
}

// A degraded open scrubs and opens every shard as its own pool task.
// With one shard's segment bit-rotted and another's audit log gone, the
// inline (ingest_threads = 1) and the parallel open must agree on the
// quarantine set, the reasons, and everything the healthy shards serve.
TEST_F(DegradedShardTest, ParallelDegradedOpenMatchesSequential) {
  BuildPopulatedVault();
  vault_.reset();
  const std::string rotted = ShardRouter::ShardDir("sharded", 1);
  XorByte(&env_, rotted + "/" + FindSegment(&env_, rotted), /*offset=*/8 + 3);
  ASSERT_TRUE(
      env_.RemoveFile(ShardRouter::ShardDir("sharded", 2) + "/audit.log").ok());

  struct Opened {
    std::vector<uint32_t> quarantined;
    std::vector<std::string> reasons;
    std::string content_root;
    std::vector<std::string> audit_roots;
    std::vector<RecordId> ids;
  };
  auto open_with = [&](unsigned threads) {
    ShardedVaultOptions options = Options(OpenMode::kDegraded);
    options.ingest_threads = threads;
    auto opened = ShardedVault::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    Opened out;
    if (!opened.ok()) return out;
    ShardedVault* v = opened->get();
    out.quarantined = v->QuarantinedShards();
    for (uint32_t k = 0; k < kShards; ++k) {
      out.reasons.push_back(v->QuarantineReason(k));
      if (v->shard(k) != nullptr) {
        out.audit_roots.push_back(v->shard(k)->audit()->Root());
      }
    }
    out.content_root = v->ContentRoot();
    out.ids = v->ListRecordIds();
    EXPECT_TRUE(v->VerifyEverything().ok());
    return out;
  };
  const Opened sequential = open_with(1);
  const Opened parallel = open_with(0);
  EXPECT_EQ(sequential.quarantined, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(parallel.quarantined, sequential.quarantined);
  EXPECT_EQ(parallel.reasons, sequential.reasons);
  EXPECT_NE(sequential.reasons[1].find("segments/"), std::string::npos)
      << sequential.reasons[1];
  EXPECT_NE(sequential.reasons[2].find("audit.log"), std::string::npos)
      << sequential.reasons[2];
  EXPECT_EQ(parallel.content_root, sequential.content_root);
  EXPECT_EQ(parallel.audit_roots, sequential.audit_roots);
  EXPECT_EQ(sequential.audit_roots.size(), 2u);
  EXPECT_EQ(parallel.ids, sequential.ids);
  EXPECT_FALSE(sequential.ids.empty());
}

// The acceptance scenario end to end: one shard suffers media damage
// (a flipped segment byte plus state-log rot that makes it unopenable),
// the vault opens degraded and keeps serving, scrub pinpoints the
// damage, repair restores only those files from backup, the shard
// rejoins, and the whole vault verifies — with exactly one kRestore
// audit event and the scrub/repair counters in the health report.
TEST_F(DegradedShardTest, EndToEndScrubRepairRejoin) {
  BuildPopulatedVault();
  const uint32_t sick = vault_->router().ShardOf(Patient(0));
  const std::string sick_pat = Patient(0);
  const std::string sick_dir = vault_->ShardDirPath(sick);
  const std::string healthy_pat = PatientOnShard((sick + 1) % kShards);

  // Off-site backup of the soon-to-die shard, then close.
  auto backup = BackupManager::Backup(vault_->shard(sick), "admin-r", &env_,
                                      "bk-shard");
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  vault_.reset();

  const std::string seg = FindSegment(&env_, sick_dir);
  XorByte(&env_, sick_dir + "/" + seg, /*offset=*/8 + 3);
  XorByte(&env_, sick_dir + "/state.log", /*offset=*/10);

  // Degraded open: healthy shards serve reads while the sick one is out.
  auto opened = ShardedVault::Open(Options(OpenMode::kDegraded));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);
  ASSERT_TRUE(vault_->IsQuarantined(sick));
  EXPECT_EQ(vault_->ReadRecord("dr-a", ids_[healthy_pat])->plaintext,
            "note for " + healthy_pat);

  // Scrub pinpoints exactly the two damaged artifacts.
  auto report = vault_->ScrubShard(sick);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->structurally_clean());
  auto damaged = report->DamagedFiles();
  ASSERT_EQ(damaged.size(), 2u);
  EXPECT_NE(report->Find(seg), nullptr);
  EXPECT_EQ(report->Find(seg)->verdict, ScrubVerdict::kCorrupt);
  EXPECT_EQ(report->Find("state.log")->verdict, ScrubVerdict::kCorrupt);

  // Repair restores only those files from the backup chain...
  auto chain = BackupManager::LoadChain(&env_, {"bk-shard"});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  auto summary =
      BackupManager::Repair(&env_, *chain, &env_, sick_dir, *report);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->restored.size(), 2u);
  EXPECT_TRUE(summary->unrepairable.empty());
  EXPECT_TRUE(summary->verified_clean);

  // ...after which the shard rejoins the live vault and serves again.
  ASSERT_TRUE(vault_->RejoinShard(sick).ok()) << vault_->QuarantineReason(sick);
  EXPECT_FALSE(vault_->IsQuarantined(sick));
  EXPECT_EQ(vault_->ReadRecord("dr-a", ids_[sick_pat])->plaintext,
            "note for " + sick_pat);
  EXPECT_TRUE(vault_->VerifyEverything().ok());

  // Exactly one kRestore event lands in the (merged) audit trail.
  ASSERT_TRUE(
      BackupManager::AuditRepair(vault_->shard(sick), "admin-r", *summary)
          .ok());
  auto trail = vault_->ReadAuditTrail("aud-x", "");
  ASSERT_TRUE(trail.ok());
  int restores = 0;
  for (const AuditEvent& e : *trail) {
    if (e.action == AuditAction::kRestore) restores++;
  }
  EXPECT_EQ(restores, 1);

  // A post-repair scrub of the rejoined (now healthy) shard runs the
  // full structural + deep pass and comes back clean.
  auto after = vault_->ScrubShard(sick);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->clean()) << after->Summary();

  // The episode is visible in the health report's counters and gauges.
  obs::HealthReport health = obs::CollectHealth(*vault_);
  EXPECT_EQ(health.metrics.counters.at("sharded.rejoined"), 1u);
  EXPECT_GE(health.metrics.counters.at("vault.scrub.runs"), 1u);
  EXPECT_EQ(health.metrics.gauges.at("sharded.quarantined"), 0);
  for (const obs::ShardHealth& s : health.shards) {
    EXPECT_FALSE(s.quarantined) << s.shard;
  }
  EXPECT_TRUE(health.shards[sick].has_last_scrub);
  EXPECT_TRUE(health.shards[sick].last_scrub_clean);
}

// ---------------------------------------------------------------------
// RetryEnv: bounded exponential backoff around transient I/O faults.

class RetryEnvTest : public ::testing::Test {
 protected:
  RetryEnvTest() : fault_(&mem_) {
    storage::RetryOptions options;
    options.sleeper = [this](uint64_t micros) { sleeps_.push_back(micros); };
    retry_ = std::make_unique<storage::RetryEnv>(&fault_, options, &registry_);
  }

  storage::MemEnv mem_;
  storage::FaultInjectionEnv fault_;
  obs::MetricsRegistry registry_;
  std::vector<uint64_t> sleeps_;
  std::unique_ptr<storage::RetryEnv> retry_;
};

TEST_F(RetryEnvTest, TransientReadFaultIsAbsorbed) {
  ASSERT_TRUE(
      storage::WriteStringToFile(&mem_, Slice("hello"), "f", false).ok());
  std::unique_ptr<storage::SequentialFile> file;
  ASSERT_TRUE(retry_->NewSequentialFile("f", &file).ok());

  fault_.FailNextReads(2);
  std::string out;
  EXPECT_TRUE(file->Read(5, &out).ok());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(retry_->read_retry_counter()->Value(), 2u);
  EXPECT_EQ(retry_->exhausted_counter()->Value(), 0u);
  // Exponential backoff: 100us then 200us.
  EXPECT_EQ(sleeps_, (std::vector<uint64_t>{100, 200}));
  // The counters live in the shared registry, so any HealthReport built
  // from it shows retry pressure.
  EXPECT_EQ(registry_.GetCounter("env.retry.reads")->Value(), 2u);
}

TEST_F(RetryEnvTest, PersistentReadFaultExhaustsTheBudget) {
  ASSERT_TRUE(
      storage::WriteStringToFile(&mem_, Slice("hello"), "f", false).ok());
  std::unique_ptr<storage::SequentialFile> file;
  ASSERT_TRUE(retry_->NewSequentialFile("f", &file).ok());

  fault_.FailReads(true);  // dying media: every read fails
  std::string out;
  EXPECT_TRUE(file->Read(5, &out).IsIoError());
  // 4 attempts total: 3 retries, then the bound is hit and we give up.
  EXPECT_EQ(retry_->read_retry_counter()->Value(), 3u);
  EXPECT_EQ(retry_->exhausted_counter()->Value(), 1u);
  EXPECT_EQ(sleeps_, (std::vector<uint64_t>{100, 200, 400}));

  // The media recovers: the same handle works again, no state wedged.
  fault_.FailReads(false);
  EXPECT_TRUE(file->Read(5, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST_F(RetryEnvTest, TransientWriteAndSyncFaultsAreAbsorbed) {
  std::unique_ptr<storage::WritableFile> file;
  ASSERT_TRUE(retry_->NewWritableFile("w", &file).ok());

  fault_.FailNextWrites(1);
  EXPECT_TRUE(file->Append(Slice("payload")).ok());
  EXPECT_EQ(retry_->write_retry_counter()->Value(), 1u);

  fault_.FailNextSyncs(1);
  EXPECT_TRUE(file->Sync().ok());
  EXPECT_EQ(retry_->sync_retry_counter()->Value(), 1u);
  EXPECT_EQ(retry_->exhausted_counter()->Value(), 0u);

  // The retried append landed exactly once.
  std::string data;
  ASSERT_TRUE(storage::ReadFileToString(&mem_, "w", &data).ok());
  EXPECT_EQ(data, "payload");
}

TEST_F(RetryEnvTest, DeterministicVerdictsAreNotRetried) {
  std::unique_ptr<storage::SequentialFile> file;
  // NotFound is a verdict, not a blip: no retries, no sleeps.
  EXPECT_TRUE(retry_->NewSequentialFile("absent", &file).IsNotFound());
  EXPECT_TRUE(sleeps_.empty());
  EXPECT_EQ(retry_->exhausted_counter()->Value(), 0u);
}

}  // namespace
}  // namespace medvault::core
