// Known-answer pins for the audit log: a fixed 1,000-event history with
// mixed actions, one AppendBatch and two signed checkpoints. The roots,
// proofs, checkpoint signatures and the SHA-256 of the audit.log bytes
// are pinned, so any change to how the log stores or serves its history
// must leave every byte a verifier or an auditor sees unchanged.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hex.h"
#include "core/audit.h"
#include "crypto/sha256.h"
#include "crypto/xmss.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

constexpr uint64_t kEvents = 1000;
constexpr uint64_t kFirstCheckpoint = 400;
constexpr uint64_t kBatchStart = 600;
constexpr uint64_t kBatchSize = 50;
constexpr int kHeight = 4;

std::string HexSha(const std::string& bytes) {
  return HexEncode(crypto::Sha256Digest(bytes));
}

std::string Concat(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& p : path) out += p;
  return out;
}

/// The i-th event of the pinned history: two reads per create, with
/// searches, corrections, break-glass and consent grants mixed in.
PendingAuditEvent PinnedEvent(uint64_t i) {
  PendingAuditEvent e;
  e.actor = "dr-" + std::to_string(i % 7);
  const std::string record = "r-" + std::to_string(i / 3);
  switch (i % 3) {
    case 0:
      e.action = AuditAction::kCreate;
      e.record_id = record;
      e.details = "policy=hipaa-6y";
      break;
    default:
      e.action = AuditAction::kRead;
      e.record_id = "r-" + std::to_string((i * 7919) % (i / 3 + 1));
      break;
  }
  if (i % 50 == 17) {
    e.action = AuditAction::kSearch;
    e.record_id.clear();
    e.details = "terms=1 hits=" + std::to_string(i % 11);
  } else if (i % 97 == 5) {
    e.action = AuditAction::kBreakGlass;
    e.record_id.clear();
    e.details = "patient=pat-" + std::to_string(i % 4) + " grant=bg-" +
                std::to_string(i);
  } else if (i % 131 == 9) {
    e.action = AuditAction::kConsentGrant;
    e.record_id.clear();
    e.details = "patient=pat-" + std::to_string(i % 4) +
                " grantee=dr-1 grant=cg-" + std::to_string(i) +
                " scope=all purpose=care";
  } else if (i % 89 == 44) {
    e.action = AuditAction::kCorrect;
    e.details = "amended";
  }
  return e;
}

class AuditPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    signer_ = std::make_unique<crypto::XmssSigner>("pin-secret", "pin-public",
                                                   kHeight);
    log_ = std::make_unique<AuditLog>(&env_, "audit.log");
    ASSERT_TRUE(log_->Open().ok());
    const Timestamp t0 = 1700000000000000;
    for (uint64_t i = 0; i < kEvents;) {
      if (i == kBatchStart) {
        std::vector<PendingAuditEvent> batch;
        for (uint64_t j = 0; j < kBatchSize; ++j) {
          batch.push_back(PinnedEvent(i + j));
        }
        auto first =
            log_->AppendBatch(batch, t0 + static_cast<Timestamp>(i));
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        ASSERT_EQ(*first, i);
        i += kBatchSize;
        continue;
      }
      PendingAuditEvent e = PinnedEvent(i);
      auto seq = log_->Append(e.actor, e.action, e.record_id, e.details,
                              t0 + static_cast<Timestamp>(i));
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      ASSERT_EQ(*seq, i);
      ++i;
      if (i == kFirstCheckpoint) {
        auto cp = log_->Checkpoint(signer_.get(), t0 + 5000000);
        ASSERT_TRUE(cp.ok()) << cp.status().ToString();
        first_ = *cp;
      }
    }
    auto cp = log_->Checkpoint(signer_.get(), t0 + 9000000);
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    second_ = *cp;
  }

  void Reopen() {
    log_ = std::make_unique<AuditLog>(&env_, "audit.log");
    ASSERT_TRUE(log_->Open().ok());
  }

  std::string FileSha() {
    std::string bytes;
    EXPECT_TRUE(storage::ReadFileToString(&env_, "audit.log", &bytes).ok());
    return HexSha(bytes);
  }

  storage::MemEnv env_;
  std::unique_ptr<crypto::XmssSigner> signer_;
  std::unique_ptr<AuditLog> log_;
  SignedCheckpoint first_;
  SignedCheckpoint second_;
};

TEST_F(AuditPinTest, RootsProofsSignaturesAndFileBytesArePinned) {
  ASSERT_EQ(log_->size(), kEvents);
  ASSERT_EQ(first_.tree_size, kFirstCheckpoint);
  ASSERT_EQ(second_.tree_size, kEvents);

  EXPECT_EQ(FileSha(),
            "5ddb294e1cb37de02c58434d28c8e59305e29fc5aed22aaf9a77223758d0cc58");
  EXPECT_EQ(HexEncode(log_->Root()),
            "32d55c601088d6c614eebef7d6826cdf7acf59dbfc6bfacd2427940067b6c337");
  EXPECT_EQ(HexEncode(first_.root),
            HexEncode(*log_->RootAt(kFirstCheckpoint)));
  EXPECT_EQ(HexEncode(first_.root),
            "e6859a4cf86e6610ec7b1be3b4750269d8f0ef587e150b2b74ade6e32804a5da");
  EXPECT_EQ(HexEncode(*log_->RootAt(777)),
            "f83d2341d2792bf600340c66c2eb77e186ab363a12b7e65e851b45ca681f890d");
  EXPECT_EQ(HexEncode(second_.root), HexEncode(log_->Root()));
  EXPECT_EQ(HexSha(first_.signature),
            "89a7f8e2333ee314b7e432a78405ca57fbadff9928c5a04706ca90df134509cd");
  EXPECT_EQ(HexSha(second_.signature),
            "b47c9ef3e30223385c4c3d2308eb3045467489e8cebc267be96785fec237991f");

  // Two inclusion proofs: an early event under the first checkpoint and
  // a batched event under the head.
  auto early = log_->ProveEventAt(123, first_.tree_size);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_TRUE(AuditLog::VerifyEventProof(*early, first_.root).ok());
  EXPECT_EQ(HexSha(Concat(early->path)),
            "cf79458327c3ab3d7fb2674bb959d18adcb5b64cedfd4cf52a6b22eadb74d42d");
  auto batched = log_->ProveEventAt(kBatchStart + 7, second_.tree_size);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_TRUE(AuditLog::VerifyEventProof(*batched, second_.root).ok());
  EXPECT_EQ(HexSha(Concat(batched->path)),
            "2980f4aebbdbd4273d584ee0689d3861710487710b8f346b07e32382334ab865");

  // One consistency proof between the two checkpoints.
  auto link =
      log_->ConsistencyProofBetween(first_.tree_size, second_.tree_size);
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  EXPECT_TRUE(crypto::MerkleTree::VerifyConsistency(
                  first_.tree_size, first_.root, second_.tree_size,
                  second_.root, *link)
                  .ok());
  EXPECT_EQ(HexSha(Concat(*link)),
            "d4d2b997b3b74e3ce686c9dfbf681d29e2fdad9fb82a4d6ce7b02fef97414f71");

  // Every event served back, byte for byte.
  std::string events;
  for (uint64_t seq = 0; seq < kEvents; ++seq) {
    auto e = log_->EventAt(seq);
    ASSERT_TRUE(e.ok()) << seq << ": " << e.status().ToString();
    events += e->Encode();
  }
  EXPECT_EQ(HexSha(events),
            "24f7322812eda70127a2d8e9e3d82d4ba7e419604a3261260577bd0ca2a0e27c");

  EXPECT_TRUE(
      log_->VerifyAll(signer_->public_key(), "pin-public", kHeight).ok());
}

TEST_F(AuditPinTest, EventsAndProofsSurviveReopen) {
  std::vector<std::string> encoded;
  std::vector<std::string> paths;
  for (uint64_t seq = 0; seq < kEvents; ++seq) {
    auto e = log_->EventAt(seq);
    ASSERT_TRUE(e.ok()) << seq << ": " << e.status().ToString();
    ASSERT_EQ(e->seq, seq);
    encoded.push_back(e->Encode());
    auto proof = log_->ProveEventAt(seq, second_.tree_size);
    ASSERT_TRUE(proof.ok()) << seq << ": " << proof.status().ToString();
    paths.push_back(proof->event.Encode() + Concat(proof->path));
  }
  const std::string root = log_->Root();

  Reopen();
  ASSERT_EQ(log_->size(), kEvents);
  EXPECT_EQ(log_->Root(), root);
  for (uint64_t seq = 0; seq < kEvents; ++seq) {
    auto e = log_->EventAt(seq);
    ASSERT_TRUE(e.ok()) << seq << ": " << e.status().ToString();
    EXPECT_EQ(e->Encode(), encoded[seq]) << seq;
    auto proof = log_->ProveEventAt(seq, second_.tree_size);
    ASSERT_TRUE(proof.ok()) << seq << ": " << proof.status().ToString();
    EXPECT_EQ(proof->event.Encode() + Concat(proof->path), paths[seq])
        << seq;
    EXPECT_TRUE(AuditLog::VerifyEventProof(*proof, second_.root).ok());
  }
  EXPECT_TRUE(log_->EventAt(kEvents).status().IsNotFound());

  auto cp = log_->CheckpointAt(kFirstCheckpoint);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->signature, first_.signature);
  auto latest = log_->LatestCheckpoint();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->signature, second_.signature);
}

}  // namespace
}  // namespace medvault::core
