// Provenance tests: custody chains, verification, export/import for
// migration handover, tamper detection.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/hex.h"
#include "core/provenance.h"
#include "crypto/sha256.h"
#include "storage/log_format.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { OpenTracker(); }

  void OpenTracker(const std::string& system = "hospital-a") {
    tracker_ = std::make_unique<ProvenanceTracker>(&env_, "prov.log",
                                                   system);
    ASSERT_TRUE(tracker_->Open().ok());
  }

  storage::MemEnv env_;
  std::unique_ptr<ProvenanceTracker> tracker_;
  Timestamp next_time_ = 5000;
};

TEST_F(ProvenanceTest, EventEncodingRoundTrip) {
  CustodyEvent e;
  e.record_id = "r-1";
  e.type = CustodyEventType::kMigratedOut;
  e.actor = "admin";
  e.system_id = "hospital-a";
  e.timestamp = 777;
  e.details = "to=hospital-b";
  e.prev_hash = std::string(32, 'p');
  auto decoded = CustodyEvent::Decode(e.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->record_id, e.record_id);
  EXPECT_EQ(decoded->type, e.type);
  EXPECT_EQ(decoded->system_id, e.system_id);
  EXPECT_EQ(decoded->prev_hash, e.prev_hash);
}

TEST_F(ProvenanceTest, ChainGrowsAndLinks) {
  auto h1 = tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                  "dr-a", "", next_time_++);
  ASSERT_TRUE(h1.ok());
  auto h2 = tracker_->RecordEvent("r-1", CustodyEventType::kCorrected,
                                  "dr-a", "v2", next_time_++);
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(*h1, *h2);
  EXPECT_EQ(tracker_->ChainHead("r-1"), *h2);

  auto chain = tracker_->GetChain("r-1");
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_TRUE((*chain)[0].prev_hash.empty());
  EXPECT_EQ((*chain)[1].prev_hash, *h1);
  EXPECT_EQ((*chain)[0].system_id, "hospital-a");
}

TEST_F(ProvenanceTest, ChainsAreIndependentPerRecord) {
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                    "a", "", next_time_++)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-2", CustodyEventType::kCreated,
                                    "b", "", next_time_++)
                  .ok());
  EXPECT_EQ(tracker_->RecordCount(), 2u);
  EXPECT_TRUE((*tracker_->GetChain("r-2"))[0].prev_hash.empty());
}

TEST_F(ProvenanceTest, VerifyPassesOnCleanChains) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kAccessed,
                                      "dr", "", next_time_++)
                    .ok());
  }
  EXPECT_TRUE(tracker_->VerifyChain("r-1").ok());
  EXPECT_TRUE(tracker_->VerifyAllChains().ok());
  EXPECT_TRUE(tracker_->VerifyChain("ghost").IsNotFound());
}

TEST_F(ProvenanceTest, SurvivesReopen) {
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                    "dr", "", next_time_++)
                  .ok());
  std::string head = tracker_->ChainHead("r-1");
  tracker_.reset();
  OpenTracker();
  EXPECT_EQ(tracker_->ChainHead("r-1"), head);
  EXPECT_TRUE(tracker_->VerifyChain("r-1").ok());
  // Chain extends after reopen.
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kBackedUp,
                                    "admin", "", next_time_++)
                  .ok());
  EXPECT_TRUE(tracker_->VerifyChain("r-1").ok());
}

TEST_F(ProvenanceTest, ExportImportHandsOverChain) {
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kAccessed,
                                      "dr", "", next_time_++)
                    .ok());
  }
  auto exported = tracker_->ExportChain("r-1");
  ASSERT_TRUE(exported.ok());

  storage::MemEnv env_b;
  ProvenanceTracker target(&env_b, "prov.log", "hospital-b");
  ASSERT_TRUE(target.Open().ok());
  ASSERT_TRUE(target.ImportChain("r-1", *exported).ok());
  EXPECT_EQ(target.ChainHead("r-1"), tracker_->ChainHead("r-1"));
  EXPECT_TRUE(target.VerifyChain("r-1").ok());

  // The new system extends the imported chain with its own events.
  ASSERT_TRUE(target.RecordEvent("r-1", CustodyEventType::kMigratedIn,
                                 "admin", "from=hospital-a", next_time_++)
                  .ok());
  auto chain = target.GetChain("r-1");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->size(), 4u);
  EXPECT_EQ(chain->back().system_id, "hospital-b");
  EXPECT_TRUE(target.VerifyChain("r-1").ok());
}

TEST_F(ProvenanceTest, ImportRejectsTamperedChain) {
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                    "dr", "", next_time_++)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kAccessed,
                                    "dr", "", next_time_++)
                  .ok());
  auto exported = tracker_->ExportChain("r-1");
  ASSERT_TRUE(exported.ok());
  // Flip one byte inside the export.
  std::string tampered = *exported;
  tampered[tampered.size() / 2] ^= 1;

  storage::MemEnv env_b;
  ProvenanceTracker target(&env_b, "prov.log", "hospital-b");
  ASSERT_TRUE(target.Open().ok());
  Status s = target.ImportChain("r-1", tampered);
  EXPECT_FALSE(s.ok());  // corruption or broken chain, never silent
}

TEST_F(ProvenanceTest, ImportRejectsWrongRecordOrDuplicate) {
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                    "dr", "", next_time_++)
                  .ok());
  auto exported = tracker_->ExportChain("r-1");
  ASSERT_TRUE(exported.ok());

  storage::MemEnv env_b;
  ProvenanceTracker target(&env_b, "prov.log", "hospital-b");
  ASSERT_TRUE(target.Open().ok());
  EXPECT_TRUE(target.ImportChain("r-2", *exported).IsInvalidArgument());
  ASSERT_TRUE(target.ImportChain("r-1", *exported).ok());
  EXPECT_TRUE(target.ImportChain("r-1", *exported).IsAlreadyExists());
}

TEST_F(ProvenanceTest, OnDiskTamperBreaksVerification) {
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kAccessed,
                                      "dr", "detail", next_time_++)
                    .ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("prov.log", &size).ok());
  ASSERT_TRUE(env_.UnsafeOverwrite("prov.log", size / 2, "Z").ok());
  tracker_.reset();

  // Reopen either fails outright (framing) or yields a chain that fails
  // verification.
  auto reopened = std::make_unique<ProvenanceTracker>(&env_, "prov.log",
                                                      "hospital-a");
  Status open_status = reopened->Open();
  if (open_status.ok()) {
    EXPECT_FALSE(reopened->VerifyAllChains().ok());
  } else {
    EXPECT_TRUE(open_status.IsCorruption());
  }
}

// Pins the handover bytes of a multi-event chain, interleaved with
// another record's chain, both as appended and as replayed after a
// reopen: an export is what a successor system verifies, so its bytes
// must not depend on how the chain is held.
TEST_F(ProvenanceTest, ExportChainBytesArePinned) {
  ASSERT_TRUE(tracker_->RecordEvent("r-7", CustodyEventType::kCreated,
                                    "dr-a", "", 1000)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-8", CustodyEventType::kCreated,
                                    "dr-b", "", 1001)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-7", CustodyEventType::kCorrected,
                                    "dr-a", "v2", 1002)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-7", CustodyEventType::kBackedUp,
                                    "admin", "chain=7", 1003)
                  .ok());
  ASSERT_TRUE(tracker_->RecordEvent("r-7", CustodyEventType::kMigratedOut,
                                    "admin", "to=hospital-b", 1004)
                  .ok());
  const std::string kPinned =
      "84dd03c30f15d28d4c94172a1b729382af6f31abbdb5d7839fddc8c574c71aed";
  auto exported = tracker_->ExportChain("r-7");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->size(), 282u);
  EXPECT_EQ(HexEncode(crypto::Sha256Digest(*exported)), kPinned);

  tracker_.reset();
  OpenTracker();
  auto replayed = tracker_->ExportChain("r-7");
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, *exported);
}

// Flips the first byte of `needle` in the log at `path`. With
// `fix_crc`, also rewrites the checksum of the physical record holding
// it, so the framing stays valid and only the hash chain can tell.
void FlipLogByte(storage::MemEnv* env, const std::string& path,
                 const std::string& needle, bool fix_crc) {
  using storage::log::kHeaderSize;
  std::string log;
  ASSERT_TRUE(storage::ReadFileToString(env, path, &log).ok());
  const size_t at = log.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(log.size(), static_cast<size_t>(storage::log::kBlockSize));
  log[at] ^= 0x20;
  ASSERT_TRUE(env->UnsafeOverwrite(path, at, Slice(&log[at], 1)).ok());
  if (!fix_crc) return;
  size_t record = 0;  // physical records of one block, back to back
  while (true) {
    const size_t length = static_cast<uint8_t>(log[record + 4]) |
                          (static_cast<uint8_t>(log[record + 5]) << 8);
    if (at < record + kHeaderSize + length) break;
    record += kHeaderSize + length;
  }
  const size_t length = static_cast<uint8_t>(log[record + 4]) |
                        (static_cast<uint8_t>(log[record + 5]) << 8);
  std::string crc;
  PutFixed32(&crc,
             crc32c::Mask(crc32c::Value(&log[record + 6], 1 + length)));
  ASSERT_TRUE(env->UnsafeOverwrite(path, record, Slice(crc)).ok());
}

// Chains are served from the log, not from memory: a byte changed on
// disk after Open — in the middle of a chain or in its newest event,
// with the frame checksum left stale or recomputed — surfaces as
// tampering on every read of that chain.
TEST_F(ProvenanceTest, ChainsAreReadBackFromTheLog) {
  for (const char* target : {"detail-b", "detail-c"}) {
    for (bool fix_crc : {false, true}) {
      SCOPED_TRACE(std::string(target) + (fix_crc ? " crc fixed" : ""));
      storage::MemEnv env;
      ProvenanceTracker tracker(&env, "prov.log", "hospital-a");
      ASSERT_TRUE(tracker.Open().ok());
      for (const char* details : {"detail-a", "detail-b", "detail-c"}) {
        ASSERT_TRUE(tracker.RecordEvent("r-1", CustodyEventType::kAccessed,
                                        "dr", details, next_time_++)
                        .ok());
      }
      ASSERT_TRUE(tracker.RecordEvent("r-2", CustodyEventType::kCreated,
                                      "dr", "other", next_time_++)
                      .ok());
      ASSERT_TRUE(tracker.VerifyAllChains().ok());

      FlipLogByte(&env, "prov.log", target, fix_crc);
      EXPECT_TRUE(tracker.GetChain("r-1").status().IsTamperDetected());
      EXPECT_TRUE(tracker.VerifyChain("r-1").IsTamperDetected());
      EXPECT_TRUE(tracker.ExportChain("r-1").status().IsTamperDetected());
      EXPECT_TRUE(tracker.VerifyAllChains().IsTamperDetected());
      // The other record's chain is untouched.
      EXPECT_TRUE(tracker.VerifyChain("r-2").ok());
      EXPECT_TRUE(tracker.GetChain("r-2").ok());
    }
  }
}

// An event appended behind the tracker's back, even one that links to
// the chain head, is outside every resident chain.
TEST_F(ProvenanceTest, VerifyAllChainsRejectsForeignEvents) {
  ASSERT_TRUE(tracker_->RecordEvent("r-1", CustodyEventType::kCreated,
                                    "dr", "", next_time_++)
                  .ok());
  CustodyEvent forged;
  forged.record_id = "r-1";
  forged.type = CustodyEventType::kDisposed;
  forged.actor = "mallory";
  forged.system_id = "hospital-a";
  forged.timestamp = next_time_++;
  forged.prev_hash = tracker_->ChainHead("r-1");
  std::unique_ptr<storage::WritableFile> file;
  ASSERT_TRUE(env_.NewAppendableFile("prov.log", &file).ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("prov.log", &size).ok());
  storage::log::Writer writer(std::move(file), size);
  ASSERT_TRUE(writer.AddRecord(forged.Encode()).ok());

  EXPECT_TRUE(tracker_->VerifyChain("r-1").ok());
  EXPECT_TRUE(tracker_->VerifyAllChains().IsTamperDetected());
}

TEST_F(ProvenanceTest, EventTypeNames) {
  EXPECT_STREQ(CustodyEventTypeName(CustodyEventType::kDisposed),
               "disposed");
  EXPECT_STREQ(CustodyEventTypeName(CustodyEventType::kMigratedIn),
               "migrated-in");
}

}  // namespace
}  // namespace medvault::core
