// Audit read-back: events are served from audit.log, not from memory,
// and every read is checked against the event's resident Merkle leaf
// hash. Bytes rewritten on disk after Open must come back as
// kTamperDetected — from EventAt, ProveEventAt and the disclosure
// report — and an appended event must be readable the moment Append
// returns, on every Env the vault runs on.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "core/audit.h"
#include "core/vault.h"
#include "storage/fault_env.h"
#include "storage/log_format.h"
#include "storage/log_reader.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::core {
namespace {

enum class EnvKind { kMem, kPosix, kFaultMem };

std::string EnvName(const ::testing::TestParamInfo<EnvKind>& info) {
  switch (info.param) {
    case EnvKind::kMem: return "Mem";
    case EnvKind::kPosix: return "Posix";
    case EnvKind::kFaultMem: return "FaultMem";
  }
  return "Unknown";
}

/// One Env stack under test, rooted in a fresh directory.
class EnvUnderTest {
 public:
  explicit EnvUnderTest(EnvKind kind) {
    storage::Env* base = nullptr;
    if (kind == EnvKind::kMem || kind == EnvKind::kFaultMem) {
      mem_ = std::make_unique<storage::MemEnv>();
      base = mem_.get();
      dir_ = "t";
    } else {
      char tmpl[] = "/tmp/medvault-audit-readback-XXXXXX";
      const char* made = mkdtemp(tmpl);
      EXPECT_NE(made, nullptr);
      dir_ = made != nullptr ? made : "/tmp";
      posix_dir_ = dir_;
      base = storage::PosixEnv::Default();
    }
    env_ = base;
    if (kind == EnvKind::kFaultMem) {
      fault_ = std::make_unique<storage::FaultInjectionEnv>(base);
      env_ = fault_.get();
    }
    EXPECT_TRUE(env_->CreateDirIfMissing(dir_).ok());
  }

  ~EnvUnderTest() {
    if (!posix_dir_.empty()) std::filesystem::remove_all(posix_dir_);
  }

  storage::Env* env() const { return env_; }
  const std::string& dir() const { return dir_; }

 private:
  std::unique_ptr<storage::MemEnv> mem_;
  std::unique_ptr<storage::FaultInjectionEnv> fault_;
  storage::Env* env_ = nullptr;
  std::string dir_;
  std::string posix_dir_;
};

/// Offset and raw bytes of event `seq`'s record in the log at `path`.
struct EventRecord {
  uint64_t offset = 0;
  std::string record;  ///< kind byte + encoded event
};

EventRecord FindEventRecord(storage::Env* env, const std::string& path,
                            uint64_t seq) {
  std::unique_ptr<storage::SequentialFile> file;
  EXPECT_TRUE(env->NewSequentialFile(path, &file).ok());
  storage::log::Reader reader(std::move(file));
  EventRecord found;
  while (reader.ReadRecord(&found.record)) {
    if (found.record.empty() || found.record[0] != 1) continue;
    auto e = AuditEvent::Decode(
        Slice(found.record.data() + 1, found.record.size() - 1));
    if (e.ok() && e->seq == seq) {
      found.offset = reader.LastRecordOffset();
      return found;
    }
  }
  ADD_FAILURE() << "no record for audit event " << seq;
  return found;
}

/// Flips the last byte of event `seq`'s record. With `fix_crc` the
/// frame checksum is recomputed, as an insider who knows the log format
/// would do: only the Merkle leaf check can catch that.
void TamperWithEvent(storage::Env* env, const std::string& path,
                     uint64_t seq, bool fix_crc) {
  EventRecord at = FindEventRecord(env, path, seq);
  ASSERT_FALSE(at.record.empty());
  ASSERT_LT(at.offset % storage::log::kBlockSize + storage::log::kHeaderSize +
                at.record.size(),
            static_cast<uint64_t>(storage::log::kBlockSize))
      << "test expects an unfragmented record";
  at.record.back() ^= 0x01;
  ASSERT_TRUE(env->UnsafeOverwrite(path,
                                   at.offset + storage::log::kHeaderSize +
                                       at.record.size() - 1,
                                   Slice(&at.record.back(), 1))
                  .ok());
  if (fix_crc) {
    const char type = static_cast<char>(storage::log::RecordType::kFull);
    uint32_t crc = crc32c::Value(&type, 1);
    crc = crc32c::Extend(crc, at.record.data(), at.record.size());
    char header[4];
    EncodeFixed32(header, crc32c::Mask(crc));
    ASSERT_TRUE(
        env->UnsafeOverwrite(path, at.offset, Slice(header, 4)).ok());
  }
}

class AuditReadbackTest : public ::testing::TestWithParam<EnvKind> {
 protected:
  AuditReadbackTest() : stack_(GetParam()) {}

  std::string LogPath() const { return stack_.dir() + "/audit.log"; }

  std::unique_ptr<AuditLog> OpenLog() {
    auto log = std::make_unique<AuditLog>(stack_.env(), LogPath());
    EXPECT_TRUE(log->Open().ok());
    return log;
  }

  EnvUnderTest stack_;
};

TEST_P(AuditReadbackTest, RewrittenEventIsTamperDetectedNeverServed) {
  for (bool fix_crc : {false, true}) {
    SCOPED_TRACE(fix_crc ? "checksum recomputed" : "checksum stale");
    (void)stack_.env()->RemoveFile(LogPath());
    auto log = OpenLog();
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(log->Append("dr-" + std::to_string(i % 3),
                              i % 4 == 0 ? AuditAction::kCreate
                                         : AuditAction::kRead,
                              "r-" + std::to_string(i % 5), "version=1",
                              1000 + i)
                      .ok());
    }
    log = OpenLog();  // the damage lands after Open
    const uint64_t size = log->size();
    auto before = log->EventAt(7);
    ASSERT_TRUE(before.ok());

    TamperWithEvent(stack_.env(), LogPath(), 7, fix_crc);

    EXPECT_TRUE(log->EventAt(7).status().IsTamperDetected());
    EXPECT_TRUE(log->ProveEventAt(7, size).status().IsTamperDetected());
    EXPECT_TRUE(log->ProveEvent(7).status().IsTamperDetected());
    Status walk = log->ForEachEvent(
        0, size, [](const AuditEvent&) { return Status::OK(); });
    EXPECT_TRUE(walk.IsTamperDetected()) << walk.ToString();
    // Its neighbours still read back untouched.
    EXPECT_TRUE(log->EventAt(6).ok());
    EXPECT_TRUE(log->EventAt(8).ok());
    // The resident tree is unchanged: the head still names the original.
    auto proof = log->ProveEventAt(6, size);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(AuditLog::VerifyEventProof(*proof, log->Root()).ok());
  }
}

TEST_P(AuditReadbackTest, DisclosureReportRefusesRewrittenEvent) {
  ManualClock clock(1000000);
  VaultOptions options;
  options.env = stack_.env();
  options.dir = stack_.dir() + "/vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "readback-entropy";
  options.signer_height = 4;
  auto vault = Vault::Open(options);
  ASSERT_TRUE(vault.ok()) << vault.status().ToString();
  Vault& v = **vault;
  ASSERT_TRUE(v.RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      v.RegisterPrincipal("admin", {"dr", Role::kPhysician, "Dr"}).ok());
  ASSERT_TRUE(
      v.RegisterPrincipal("admin", {"aud", Role::kAuditor, "Aud"}).ok());
  ASSERT_TRUE(
      v.RegisterPrincipal("admin", {"pat", Role::kPatient, "P"}).ok());
  ASSERT_TRUE(v.AssignCare("admin", "dr", "pat").ok());
  auto record = v.CreateRecord("dr", "pat", "text/plain", "note", {},
                               "hipaa-6y");
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(v.ReadRecord("dr", *record).ok());
  ASSERT_TRUE(v.ReadRecord("dr", *record).ok());

  auto report = v.AccountingOfDisclosures("aud", "pat");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->size(), 2u);
  const uint64_t read_seq = (*report)[0].seq;

  TamperWithEvent(stack_.env(), options.dir + "/audit.log", read_seq,
                  /*fix_crc=*/true);
  EXPECT_TRUE(v.AccountingOfDisclosures("aud", "pat")
                  .status()
                  .IsTamperDetected());
  EXPECT_TRUE(
      v.ReadAuditTrail("aud", *record).status().IsTamperDetected());
  EXPECT_TRUE(v.ReadAuditTrail("aud", "").status().IsTamperDetected());
}

TEST_P(AuditReadbackTest, AppendedEventIsReadableAsSoonAsAppendReturns) {
  auto log = OpenLog();
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 300;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread reader([&] {
    while (!done.load()) {
      const uint64_t n = log->size();
      if (n == 0) continue;
      auto e = log->EventAt(n - 1);
      if (!e.ok() || e->seq != n - 1) failures++;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string actor = "dr-" + std::to_string(w);
        uint64_t seq = 0;
        if (i % 10 == 9) {
          std::vector<PendingAuditEvent> batch(3);
          for (PendingAuditEvent& p : batch) {
            p.actor = actor;
            p.action = AuditAction::kRead;
            p.record_id = "r-" + std::to_string(i);
          }
          auto first = log->AppendBatch(batch, 1000 + i);
          if (!first.ok()) {
            failures++;
            continue;
          }
          seq = *first + batch.size() - 1;
        } else {
          auto appended = log->Append(actor, AuditAction::kRead,
                                      "r-" + std::to_string(i), "", 1000 + i);
          if (!appended.ok()) {
            failures++;
            continue;
          }
          seq = *appended;
        }
        auto e = log->EventAt(seq);
        if (!e.ok() || e->seq != seq || e->actor != actor) failures++;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Every event reads back after the race, and again after a reopen.
  const uint64_t size = log->size();
  EXPECT_EQ(size, static_cast<uint64_t>(kWriters * kPerWriter +
                                        kWriters * (kPerWriter / 10) * 2));
  const std::string root = log->Root();
  log = OpenLog();
  EXPECT_EQ(log->Root(), root);
  uint64_t seen = 0;
  ASSERT_TRUE(log->ForEachEvent(0, size, [&](const AuditEvent& e) {
                  EXPECT_EQ(e.seq, seen++);
                  return Status::OK();
                })
                  .ok());
  EXPECT_EQ(seen, size);
}

INSTANTIATE_TEST_SUITE_P(Envs, AuditReadbackTest,
                         ::testing::Values(EnvKind::kMem, EnvKind::kPosix,
                                           EnvKind::kFaultMem),
                         EnvName);

// The break-glass review is served from the per-patient index; it must
// list exactly what a full scan of the log finds.
TEST(AuditIndexTest, BreakGlassReviewMatchesFullScan) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  VaultOptions options;
  options.env = &env;
  options.dir = "vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "review-entropy";
  options.signer_height = 4;
  auto vault = Vault::Open(options);
  ASSERT_TRUE(vault.ok());
  Vault& v = **vault;
  ASSERT_TRUE(v.RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      v.RegisterPrincipal("admin", {"aud", Role::kAuditor, "Aud"}).ok());
  for (int p = 0; p < 3; ++p) {
    const std::string pat = "pat-" + std::to_string(p);
    const std::string dr = "dr-" + std::to_string(p);
    ASSERT_TRUE(v.RegisterPrincipal("admin", {pat, Role::kPatient, pat}).ok());
    ASSERT_TRUE(
        v.RegisterPrincipal("admin", {dr, Role::kPhysician, dr}).ok());
    ASSERT_TRUE(v.AssignCare("admin", dr, pat).ok());
    ASSERT_TRUE(
        v.CreateRecord(dr, pat, "text/plain", "note", {}, "hipaa-6y").ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(v.BreakGlass("dr-" + std::to_string(i % 3),
                             "pat-" + std::to_string((i + 1) % 3),
                             "emergency " + std::to_string(i),
                             3600 * kMicrosPerSecond)
                    .ok());
  }

  auto review = v.ListBreakGlassEvents("aud");
  ASSERT_TRUE(review.ok()) << review.status().ToString();
  std::vector<uint64_t> scanned;
  ASSERT_TRUE(v.audit()
                  ->ForEachEvent(0, v.audit()->size(),
                                 [&](const AuditEvent& e) {
                                   if (e.action == AuditAction::kBreakGlass) {
                                     scanned.push_back(e.seq);
                                   }
                                   return Status::OK();
                                 })
                  .ok());
  std::vector<uint64_t> listed;
  for (const AuditEvent& e : *review) listed.push_back(e.seq);
  EXPECT_EQ(listed, scanned);
  EXPECT_EQ(listed.size(), 5u);
}

}  // namespace
}  // namespace medvault::core
