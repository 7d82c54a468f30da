// Audit log tests: hash chaining, Merkle commitments, signed
// checkpoints, insider tampering/truncation detection, proofs.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/audit.h"
#include "crypto/xmss.h"
#include "storage/fault_env.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  static constexpr int kHeight = 3;

  void SetUp() override {
    signer_ = std::make_unique<crypto::XmssSigner>("audit-secret",
                                                   "audit-public", kHeight);
    OpenLog();
  }

  void OpenLog() {
    log_ = std::make_unique<AuditLog>(&env_, "audit.log");
    ASSERT_TRUE(log_->Open().ok());
  }

  Status VerifyAll() {
    return log_->VerifyAll(signer_->public_key(), "audit-public", kHeight);
  }

  Result<uint64_t> Log(const std::string& actor, AuditAction action,
                       const std::string& record = "",
                       const std::string& details = "") {
    return log_->Append(actor, action, record, details, next_time_++);
  }

  storage::MemEnv env_;
  std::unique_ptr<crypto::XmssSigner> signer_;
  std::unique_ptr<AuditLog> log_;
  Timestamp next_time_ = 1000;
};

TEST_F(AuditTest, AppendAssignsSequentialSeqs) {
  EXPECT_EQ(*Log("alice", AuditAction::kCreate, "r-1"), 0u);
  EXPECT_EQ(*Log("bob", AuditAction::kRead, "r-1"), 1u);
  EXPECT_EQ(log_->size(), 2u);
  EXPECT_EQ(log_->EventAt(1)->actor, "bob");
}

TEST_F(AuditTest, EventEncodingRoundTrip) {
  AuditEvent e;
  e.seq = 7;
  e.timestamp = 123456;
  e.actor = "dr-x";
  e.action = AuditAction::kBreakGlass;
  e.record_id = "r-9";
  e.details = "emergency";
  e.prev_hash = std::string(32, 'h');
  auto decoded = AuditEvent::Decode(e.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, e.seq);
  EXPECT_EQ(decoded->timestamp, e.timestamp);
  EXPECT_EQ(decoded->actor, e.actor);
  EXPECT_EQ(decoded->action, e.action);
  EXPECT_EQ(decoded->record_id, e.record_id);
  EXPECT_EQ(decoded->details, e.details);
  EXPECT_EQ(decoded->prev_hash, e.prev_hash);
}

TEST_F(AuditTest, ActionNamesAreStable) {
  EXPECT_STREQ(AuditActionName(AuditAction::kBreakGlass), "break-glass");
  EXPECT_STREQ(AuditActionName(AuditAction::kDispose), "dispose");
}

TEST_F(AuditTest, CleanLogVerifies) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  ASSERT_TRUE(log_->Checkpoint(signer_.get(), next_time_++).ok());
  EXPECT_TRUE(VerifyAll().ok());
}

TEST_F(AuditTest, ReplaySurvivesReopen) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  std::string root = log_->Root();
  log_.reset();
  OpenLog();
  EXPECT_EQ(log_->size(), 20u);
  EXPECT_EQ(log_->Root(), root);
  // Appends continue the chain seamlessly.
  ASSERT_TRUE(Log("actor", AuditAction::kCorrect, "r-1").ok());
  EXPECT_TRUE(VerifyAll().ok());
}

TEST_F(AuditTest, CheckpointSignatureVerifies) {
  ASSERT_TRUE(Log("actor", AuditAction::kCreate, "r-1").ok());
  auto cp = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->tree_size, 1u);
  EXPECT_EQ(cp->root, log_->Root());
  auto sig = crypto::XmssSignature::Decode(cp->signature);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(crypto::XmssSigner::Verify(cp->SignedPayload(), *sig,
                                         signer_->public_key(),
                                         "audit-public", kHeight)
                  .ok());
}

TEST_F(AuditTest, InsiderByteFlipDetected) {
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  ASSERT_TRUE(VerifyAll().ok());

  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("audit.log", &size).ok());
  ASSERT_TRUE(env_.UnsafeOverwrite("audit.log", size / 2, "X").ok());
  EXPECT_TRUE(VerifyAll().IsTamperDetected());
}

TEST_F(AuditTest, TruncationDetectedAgainstRetainedCheckpoint) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  // The auditor retains the current head out-of-band.
  SignedCheckpoint trusted;
  trusted.tree_size = log_->size();
  trusted.root = log_->Root();

  // The insider truncates the log to half its length — WAL recovery
  // treats a torn tail as clean EOF, so the shortened log parses fine.
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("audit.log", &size).ok());
  ASSERT_TRUE(env_.UnsafeTruncate("audit.log", size / 2).ok());
  log_.reset();
  OpenLog();
  EXPECT_LT(log_->size(), 10u);
  // Internal checks cannot see the missing tail (no checkpoint left),
  // but the retained head exposes the truncation.
  EXPECT_TRUE(log_->VerifyAgainstTrusted(trusted).IsTamperDetected());
}

TEST_F(AuditTest, TruncationBelowEmbeddedCheckpointDetected) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  ASSERT_TRUE(log_->Checkpoint(signer_.get(), next_time_++).ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kCorrect, "r-1").ok());
  }
  // Cut the tail but leave the embedded checkpoint intact: VerifyAll
  // sees a checkpoint covering 10 events and a consistent prefix —
  // that's fine — but cutting *below* the checkpoint must be caught.
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("audit.log", &size).ok());
  // Find how far we must cut to drop below 10 events: cut to 1/8.
  ASSERT_TRUE(env_.UnsafeTruncate("audit.log", size / 8).ok());
  log_.reset();
  auto reopened = std::make_unique<AuditLog>(&env_, "audit.log");
  Status open_status = reopened->Open();
  if (open_status.ok()) {
    if (reopened->size() < 10) {
      // The checkpoint went with the tail; internal verify is blind —
      // by design the trusted-checkpoint path covers this (previous
      // test). Nothing further to assert here.
      SUCCEED();
    } else {
      EXPECT_TRUE(reopened
                      ->VerifyAll(signer_->public_key(), "audit-public",
                                  kHeight)
                      .ok());
    }
  } else {
    EXPECT_TRUE(open_status.IsCorruption() ||
                open_status.IsTamperDetected());
  }
}

TEST_F(AuditTest, TrustedCheckpointCatchesTruncation) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead).ok());
  }
  auto trusted = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(trusted.ok());

  // Insider rewrites the whole log shorter (fully consistent file!).
  ASSERT_TRUE(env_.RemoveFile("audit.log").ok());
  OpenLog();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead).ok());
  }
  // Internal verification of the rewritten log passes (no checkpoints
  // inside)...
  EXPECT_TRUE(VerifyAll().ok());
  // ...but the auditor's retained head exposes the rewrite.
  EXPECT_TRUE(log_->VerifyAgainstTrusted(*trusted).IsTamperDetected());
}

TEST_F(AuditTest, TrustedCheckpointCatchesHistoryRewrite) {
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
  }
  auto trusted = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(trusted.ok());

  // Full rewrite with one event altered, same length.
  ASSERT_TRUE(env_.RemoveFile("audit.log").ok());
  OpenLog();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(Log(i == 3 ? "mallory" : "actor", AuditAction::kRead,
                    "r-1")
                    .ok());
  }
  EXPECT_TRUE(log_->VerifyAgainstTrusted(*trusted).IsTamperDetected());
}

TEST_F(AuditTest, TrustedCheckpointAcceptsHonestGrowth) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead).ok());
  }
  auto trusted = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(trusted.ok());
  for (int i = 0; i < 7; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kCorrect).ok());
  }
  EXPECT_TRUE(log_->VerifyAgainstTrusted(*trusted).ok());
}

TEST_F(AuditTest, EventProofsVerifyAgainstRoot) {
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(Log("actor-" + std::to_string(i), AuditAction::kRead).ok());
  }
  std::string root = log_->Root();
  for (uint64_t seq : {0u, 7u, 24u}) {
    auto proof = log_->ProveEvent(seq);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(AuditLog::VerifyEventProof(*proof, root).ok());
  }
  EXPECT_TRUE(log_->ProveEvent(99).status().IsNotFound());
}

// Regression, the stale-root proof contract: ProveEvent proves against
// the CURRENT head only, so a verifier who pinned a published
// checkpoint and returned after the log grew held a proof that
// verified against nothing they trusted. ProveEventAt(seq, n) must
// serve any event under any historical size n, and the proof must
// carry that size — not the live one.
TEST_F(AuditTest, StaleCheckpointProofContract) {
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(Log("actor-" + std::to_string(i), AuditAction::kRead).ok());
  }
  // The verifier pins this checkpoint and walks away.
  auto pinned = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->tree_size, 6u);

  // The log grows past the pin.
  for (int i = 0; i < 9; i++) {
    ASSERT_TRUE(Log("later-" + std::to_string(i), AuditAction::kRead).ok());
  }

  // Every pinned-era event is provable against the pinned root...
  for (uint64_t seq = 0; seq < pinned->tree_size; seq++) {
    auto proof = log_->ProveEventAt(seq, pinned->tree_size);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_EQ(proof->tree_size, pinned->tree_size);
    EXPECT_TRUE(AuditLog::VerifyEventProof(*proof, pinned->root).ok());
    // ...while the head proof for the same event is NOT (the bug).
    auto head = log_->ProveEvent(seq);
    ASSERT_TRUE(head.ok());
    EXPECT_FALSE(AuditLog::VerifyEventProof(*head, pinned->root).ok());
  }

  // Contract edges: an event at/after the pinned size needs a newer
  // checkpoint (kInvalidArgument); a size past the log is kNotFound.
  EXPECT_TRUE(
      log_->ProveEventAt(pinned->tree_size, pinned->tree_size).status()
          .IsInvalidArgument());
  EXPECT_TRUE(log_->ProveEventAt(0, log_->size() + 1).status().IsNotFound());

  // The consistency proof ties the pinned root to the grown head, so
  // the verifier can re-pin without replaying the log.
  auto grown = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(grown.ok());
  auto link =
      log_->ConsistencyProofBetween(pinned->tree_size, grown->tree_size);
  ASSERT_TRUE(link.ok());
  EXPECT_TRUE(crypto::MerkleTree::VerifyConsistency(
                  pinned->tree_size, pinned->root, grown->tree_size,
                  grown->root, *link)
                  .ok());
  // A mismatched old root must NOT link (fork detection).
  std::string forged = pinned->root;
  forged[0] ^= 1;
  EXPECT_FALSE(crypto::MerkleTree::VerifyConsistency(
                   pinned->tree_size, forged, grown->tree_size, grown->root,
                   *link)
                   .ok());
}

// The per-record and disclosure-accounting indexes must agree with a
// full scan and survive replay (they are rebuilt from the log on Open).
TEST_F(AuditTest, DisclosureIndexMatchesScanAndSurvivesReopen) {
  ASSERT_TRUE(Log("dr", AuditAction::kRead, "r-1").ok());
  ASSERT_TRUE(Log("dr", AuditAction::kRead, "r-2").ok());
  ASSERT_TRUE(Log("dr", AuditAction::kRead, "r-1").ok());
  ASSERT_TRUE(Log("dr", AuditAction::kSearch, "r-1").ok());  // not a read
  ASSERT_TRUE(Log("dr", AuditAction::kRead).ok());  // recordless read
  ASSERT_TRUE(
      Log("dr", AuditAction::kBreakGlass, "", "patient=pat grant=g-1").ok());
  ASSERT_TRUE(  // malformed details (no trailing space): never indexed
      Log("dr", AuditAction::kBreakGlass, "", "patient=pat").ok());
  ASSERT_TRUE(  // a consent grant discloses PHI access to the grantee
      Log("pat", AuditAction::kConsentGrant, "",
          "patient=pat grantee=dr grant=cg-1 scope=record purpose=x")
          .ok());
  ASSERT_TRUE(  // malformed (no trailing space): never indexed
      Log("pat", AuditAction::kConsentGrant, "", "patient=pat").ok());
  ASSERT_TRUE(  // revocations disclose nothing: deliberately not indexed
      Log("pat", AuditAction::kConsentRevoke, "",
          "patient=pat grantee=dr grant=cg-1 by=pat")
          .ok());

  auto check = [&] {
    EXPECT_EQ(log_->SeqsForRecord("r-1"), (std::vector<uint64_t>{0, 2, 3}));
    EXPECT_EQ(log_->SeqsForRecord("r-2"), (std::vector<uint64_t>{1}));
    EXPECT_TRUE(log_->SeqsForRecord("r-404").empty());
    EXPECT_EQ(log_->BreakGlassSeqsForPatient("pat"),
              (std::vector<uint64_t>{5}));
    EXPECT_EQ(log_->BreakGlassSeqs(), (std::vector<uint64_t>{5}));
    EXPECT_TRUE(log_->BreakGlassSeqsForPatient("other").empty());
    EXPECT_EQ(log_->ConsentSeqsForPatient("pat"),
              (std::vector<uint64_t>{7}));
    EXPECT_TRUE(log_->ConsentSeqsForPatient("other").empty());
  };
  check();
  OpenLog();  // replay rebuilds the index
  check();
}

// CheckpointAt looks a size up among the published checkpoints, which
// ascend by tree size; of several published at one size the latest wins.
TEST_F(AuditTest, CheckpointAtFindsEachPublishedSize) {
  EXPECT_TRUE(log_->CheckpointAt(0).status().IsNotFound());
  std::vector<SignedCheckpoint> published;
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i <= round; i++) {
      ASSERT_TRUE(Log("actor", AuditAction::kRead, "r-1").ok());
    }
    auto cp = log_->Checkpoint(signer_.get(), next_time_++);
    ASSERT_TRUE(cp.ok());
    published.push_back(*cp);
  }
  auto again = log_->Checkpoint(signer_.get(), next_time_++);  // same size
  ASSERT_TRUE(again.ok());

  for (int pass = 0; pass < 2; pass++) {
    for (size_t i = 0; i + 1 < published.size(); i++) {
      auto found = log_->CheckpointAt(published[i].tree_size);
      ASSERT_TRUE(found.ok()) << published[i].tree_size;
      EXPECT_EQ(found->signature, published[i].signature);
    }
    auto last = log_->CheckpointAt(again->tree_size);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(last->signature, again->signature);
    for (uint64_t missing : {uint64_t{0}, uint64_t{2}, uint64_t{4},
                             again->tree_size + 1}) {
      EXPECT_TRUE(log_->CheckpointAt(missing).status().IsNotFound())
          << missing;
    }
    OpenLog();  // replay restores the same list
  }
}

TEST_F(AuditTest, ForgedEventProofFails) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead).ok());
  }
  auto proof = log_->ProveEvent(4);
  ASSERT_TRUE(proof.ok());
  proof->event.actor = "mallory";  // claim someone else did it
  EXPECT_TRUE(
      AuditLog::VerifyEventProof(*proof, log_->Root()).IsTamperDetected());
}

TEST_F(AuditTest, CheckpointEncodingRoundTrip) {
  ASSERT_TRUE(Log("a", AuditAction::kCreate).ok());
  auto cp = log_->Checkpoint(signer_.get(), next_time_++);
  ASSERT_TRUE(cp.ok());
  auto decoded = SignedCheckpoint::Decode(cp->Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tree_size, cp->tree_size);
  EXPECT_EQ(decoded->root, cp->root);
  EXPECT_EQ(decoded->signature, cp->signature);
}

TEST_F(AuditTest, ForgedCheckpointSignatureDetected) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead).ok());
  }
  // A different (attacker) signer writes a checkpoint into the log.
  crypto::XmssSigner mallory("mallory-secret", "audit-public", kHeight);
  ASSERT_TRUE(log_->Checkpoint(&mallory, next_time_++).ok());
  EXPECT_TRUE(VerifyAll().IsTamperDetected());
}

TEST_F(AuditTest, RootAtProvesPrefixHeads) {
  std::vector<std::string> heads;
  heads.push_back(log_->Root());  // empty log
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(Log("actor", AuditAction::kRead, "r").ok());
    heads.push_back(log_->Root());
  }
  // Every historical head is reproducible from the grown log...
  for (uint64_t n = 0; n <= 8; n++) {
    auto at = log_->RootAt(n);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, heads[n]) << "head over first " << n << " events";
  }
  // ...and a head PAST the log ("the replica is ahead") is an error,
  // never a silently fabricated root.
  EXPECT_FALSE(log_->RootAt(9).ok());
}

TEST_F(AuditTest, PartialBatchAppendSurfacesAndDoesNotAdvance) {
  ASSERT_TRUE(Log("a", AuditAction::kCreate, "r-1").ok());
  const uint64_t size_before = log_->size();
  const std::string root_before = log_->Root();

  // Rebuild the log on a fault-injecting env so the batch's coalesced
  // write fails after the first underlying write: a torn prefix may be
  // on disk, and the failure must say so distinctly.
  storage::FaultInjectionEnv fault(&env_);
  log_ = std::make_unique<AuditLog>(&fault, "audit.log");
  ASSERT_TRUE(log_->Open().ok());
  fault.FailNextWrites(1);

  std::vector<PendingAuditEvent> batch(3);
  for (auto& p : batch) {
    p.actor = "dr";
    p.action = AuditAction::kRead;
    p.record_id = "r-1";
  }
  auto seq = log_->AppendBatch(batch, next_time_++);
  ASSERT_FALSE(seq.ok());
  EXPECT_NE(seq.status().ToString().find("partial audit batch append"),
            std::string::npos)
      << seq.status().ToString();
  // The in-memory chain, tree and sequence did not advance: nothing
  // was acknowledged, so nothing may depend on the failed bytes.
  EXPECT_EQ(log_->size(), size_before);
  EXPECT_EQ(log_->Root(), root_before);

  // Crash recovery's reopen truncates whatever torn tail landed, and
  // the retried batch then chains cleanly onto the surviving prefix.
  fault.Reset();
  OpenLog();
  EXPECT_EQ(log_->size(), size_before);
  auto retried = log_->AppendBatch(batch, next_time_++);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, size_before);
  EXPECT_EQ(log_->size(), size_before + batch.size());
  EXPECT_TRUE(VerifyAll().ok());
}

}  // namespace
}  // namespace medvault::core
