#ifndef MEDVAULT_CORE_AUDIT_H_
#define MEDVAULT_CORE_AUDIT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/slice.h"
#include "core/record.h"
#include "core/record_table.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/xmss.h"
#include "storage/env.h"
#include "storage/log_writer.h"

namespace medvault::core {

/// What happened. HIPAA §164.312(b) requires recording all EPHI access;
/// §164.310(d)(2)(iii) requires recording media/record movements.
enum class AuditAction : uint8_t {
  kCreate = 1,
  kRead = 2,
  kCorrect = 3,
  kSearch = 4,
  kDispose = 5,
  kBreakGlass = 6,
  kAccessDenied = 7,
  kMigrateOut = 8,
  kMigrateIn = 9,
  kBackup = 10,
  kRestore = 11,
  kKeyRotation = 12,
  kCustodyTransfer = 13,
  kPolicyChange = 14,
  kRecovery = 15,  ///< crash recovery reconciled partial state
  kConsentGrant = 16,   ///< patient delegated access to a third party
  kConsentRevoke = 17,  ///< delegation withdrawn (patient, admin, or shred)
};

const char* AuditActionName(AuditAction action);

/// One tamper-evident audit entry. Entries are hash-chained
/// (prev_hash = SHA-256 of the previous entry's encoding) *and* committed
/// as Merkle leaves, so both streaming verification and O(log n) proofs
/// are available.
struct AuditEvent {
  uint64_t seq = 0;
  Timestamp timestamp = 0;
  PrincipalId actor;
  AuditAction action = AuditAction::kRead;
  RecordId record_id;  ///< may be empty for system-wide events
  std::string details;
  std::string prev_hash;  ///< "" for seq 0

  std::string Encode() const;
  static Result<AuditEvent> Decode(const Slice& data);
};

/// An encoded AuditEvent's fields as slices of the encoding. Parse is
/// the one decoder: AuditEvent::Decode copies its fields out, and log
/// replay checks and indexes events without copying them.
struct AuditEventView {
  uint64_t seq = 0;
  Timestamp timestamp = 0;
  Slice actor;
  AuditAction action = AuditAction::kRead;
  Slice record_id;
  Slice details;
  Slice prev_hash;

  static Result<AuditEventView> Parse(const Slice& data);
};

/// A signed statement "the first `tree_size` audit entries have Merkle
/// root `root`". An auditor who retains any past checkpoint can later
/// prove append-only growth (or catch truncation/rewriting) via a
/// consistency proof — this is the paper's "verifiable audit trail".
struct SignedCheckpoint {
  uint64_t tree_size = 0;
  std::string root;
  Timestamp timestamp = 0;
  std::string signature;  ///< XmssSignature::Encode()

  /// The byte string that is signed.
  std::string SignedPayload() const;
  std::string Encode() const;
  static Result<SignedCheckpoint> Decode(const Slice& data);
};

/// Proof that one audit event is committed under a checkpoint.
/// `tree_size` names the (checkpointed) tree size the proof verifies
/// under — NOT necessarily the log's current size: a verifier holding a
/// checkpoint for size n can check any event with seq < n regardless of
/// how far the log has grown since (see ProveEventAt).
struct EventProof {
  AuditEvent event;
  uint64_t tree_size = 0;
  std::vector<std::string> path;
};

/// An event waiting to be appended as part of a batch; seq, prev_hash
/// and timestamp are assigned by AuditLog::AppendBatch.
struct PendingAuditEvent {
  PrincipalId actor;
  AuditAction action = AuditAction::kRead;
  RecordId record_id;
  std::string details;
};

/// Append-only audit log on an Env file, with hash chaining, Merkle
/// commitments, and XMSS-signed checkpoints.
///
/// History stays on disk: memory holds the Merkle leaf and memo hashes,
/// each event's file offset and the per-record / per-patient seq
/// indexes, never the events themselves. EventAt, ProveEventAt and
/// ForEachEvent read an event back with one positional read and check
/// it against its resident leaf hash, so bytes rewritten on disk after
/// Open come back as kTamperDetected, never as an altered event. An
/// event is readable as soon as its Append returns.
///
/// Thread safety: all mutating and in-memory-reading operations are
/// serialized on an internal mutex, so concurrent Vault readers can
/// append their mandatory access-audit entries without holding the
/// vault's exclusive lock; read-back does its file I/O outside it. The
/// internal mutex is a leaf in the lock order (vault lock, if held, is
/// always acquired first; no AuditLog method calls back into Vault).
/// Exception: VerifyAll re-reads the on-disk file, so callers must
/// exclude concurrent appends.
class AuditLog {
 public:
  /// `records` (the vault's record table, may be null) indexes the
  /// per-record back-pointers. The log only reads it, under the same
  /// lock as the vault's readers, and never interns.
  AuditLog(storage::Env* env, std::string path,
           const RecordTable* records = nullptr);

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Replays an existing log (verifying the chain) or starts fresh.
  /// After an unclean shutdown a torn final record is cut off; damage
  /// anywhere else in the file still fails the open (tamper evidence).
  Status Open();

  /// Durability barrier on the audit log.
  Status Sync();

  /// The log file for the vault's commit wave (null before Open). The
  /// caller must exclude concurrent appends for the duration of the
  /// wave — the vault's exclusive lock does — since the barrier bypasses
  /// this log's internal mutex.
  storage::WritableFile* sync_target();

  /// Appends an event; fills seq/prev_hash. Returns the sequence number.
  Result<uint64_t> Append(const PrincipalId& actor, AuditAction action,
                          const RecordId& record_id,
                          const std::string& details, Timestamp now);

  /// Appends a batch of events under one lock acquisition with the
  /// framing for all of them coalesced into a single buffered file
  /// write. Returns the sequence number of the first event. The hash
  /// chain and Merkle tree advance exactly as if Append had been called
  /// once per event.
  Result<uint64_t> AppendBatch(const std::vector<PendingAuditEvent>& batch,
                               Timestamp now);

  /// Signs the current tree head. The caller (auditor) should retain the
  /// returned checkpoint out-of-band; it is also appended to the log.
  Result<SignedCheckpoint> Checkpoint(crypto::XmssSigner* signer,
                                      Timestamp now);

  uint64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return offsets_.size();
  }

  /// Reads back up to `max_events` events from seq `begin` on, in seq
  /// order, and hands each to `fn`; stops at the end of the log or at
  /// the first non-OK status from a read-back or from `fn`.
  Status ForEachEvent(
      uint64_t begin, uint64_t max_events,
      const std::function<Status(const AuditEvent&)>& fn) const;

  /// Full verification from on-disk bytes: re-reads the file, checks
  /// frame CRCs, the hash chain, sequence continuity, and that every
  /// embedded checkpoint's root matches the recomputed tree and carries
  /// a valid signature. Returns kTamperDetected / kCorruption on failure.
  Status VerifyAll(const Slice& signer_public_key,
                   const Slice& signer_public_seed, int signer_height) const;

  /// Proves the log is an append-only extension of `trusted` (a
  /// checkpoint the auditor saved earlier). Catches truncation and
  /// history rewrites that VerifyAll alone cannot (an insider who
  /// rewrites the *whole* file consistently is only caught against
  /// externally retained heads).
  Status VerifyAgainstTrusted(const SignedCheckpoint& trusted) const;

  /// Inclusion proof for event `seq` under the current tree head.
  Result<EventProof> ProveEvent(uint64_t seq) const;

  /// Inclusion proof for event `seq` under the prefix head of size
  /// `tree_size` — the proof a verifier needs when they trust an earlier
  /// published checkpoint rather than the live head. kNotFound if the
  /// log has fewer than `tree_size` events or `seq >= tree_size`.
  Result<EventProof> ProveEventAt(uint64_t seq, uint64_t tree_size) const;

  /// Merkle consistency proof that the first `new_size` events are an
  /// append-only extension of the first `old_size` — lets a witness who
  /// saved the checkpoint at `old_size` accept the one at `new_size`
  /// without replaying the log. kNotFound if `new_size` exceeds the log.
  Result<std::vector<std::string>> ConsistencyProofBetween(
      uint64_t old_size, uint64_t new_size) const;

  /// Stateless verification of an event proof against a (checkpointed)
  /// root.
  static Status VerifyEventProof(const EventProof& proof, const Slice& root);

  /// Consistent copy of the published-checkpoint list (log replay
  /// restores it on Open, so this survives restarts).
  std::vector<SignedCheckpoint> SnapshotCheckpoints() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checkpoints_;
  }

  /// Most recently published checkpoint; kNotFound before the first.
  Result<SignedCheckpoint> LatestCheckpoint() const;

  /// The published checkpoint covering exactly `tree_size` events;
  /// kNotFound if no checkpoint was ever published at that size.
  Result<SignedCheckpoint> CheckpointAt(uint64_t tree_size) const;

  /// Ascending sequence numbers of every event naming `record_id` —
  /// maintained incrementally at append and rebuilt by log replay on
  /// Open, so a record's trail and the disclosure accounting (HIPAA
  /// §164.528, which keeps the kRead events) cost O(that record's
  /// events) instead of a full-log scan.
  std::vector<uint64_t> SeqsForRecord(const RecordId& record_id) const;

  /// Sequence numbers of kBreakGlass events whose details name
  /// `patient_id` (break-glass grants are patient-scoped, not
  /// record-scoped, so they index separately).
  std::vector<uint64_t> BreakGlassSeqsForPatient(
      const PrincipalId& patient_id) const;

  /// Ascending sequence numbers of every indexed kBreakGlass event, all
  /// patients together.
  std::vector<uint64_t> BreakGlassSeqs() const;

  /// Sequence numbers of kConsentGrant events whose details name
  /// `patient_id` — a consent grant is itself a §164.528-reportable
  /// disclosure decision (it names the recipient), and like break-glass
  /// it is patient-scoped. Revocations are deliberately NOT indexed:
  /// withdrawing access discloses nothing.
  std::vector<uint64_t> ConsentSeqsForPatient(
      const PrincipalId& patient_id) const;

  /// Event `seq`, read back from disk; kNotFound past the end,
  /// kTamperDetected if its bytes no longer match its Merkle leaf.
  Result<AuditEvent> EventAt(uint64_t seq) const;

  /// Current tree head (root over all events).
  std::string Root() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_.Root();
  }

  /// Tree head over the first `n` events — lets a verifier check that
  /// an earlier head (e.g. one shipped to a replica) is a prefix of
  /// this log.
  Result<std::string> RootAt(uint64_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_.RootAt(n);
  }

 private:
  /// Where event `seq` lives on disk and the leaf hash it must match —
  /// captured under mu_ so the read itself can run unlocked.
  struct EventLocation {
    uint64_t seq = 0;
    uint64_t offset = 0;
    uint64_t limit = 0;  ///< read bound: the next event, or the log end
    std::string leaf_hash;
  };

  /// Requires mu_ held and seq < size.
  EventLocation LocateLocked(uint64_t seq) const;

  /// One positional read of the event at `at`, checked against its
  /// leaf hash. Needs no lock: the bytes were written before `at` was.
  Result<AuditEvent> ReadBack(const EventLocation& at) const;

  /// Commits an event written at `offset` to the tree and indexes (the
  /// caller advances last_hash_). Requires mu_ held.
  void AddEventLocked(const AuditEventView& event, const Slice& payload,
                      uint64_t offset);

  /// Requires mu_ held.
  Result<uint64_t> AppendEventLocked(AuditEvent event);

  /// Adds `event` to the per-record and per-patient indexes. Requires
  /// mu_ held (or exclusive access during Open replay).
  void IndexEventLocked(const AuditEventView& event);

  /// The slot holding the newest seq naming `record_id` (kNoSeq before
  /// the first). Requires mu_ held.
  uint64_t& LastSeqLocked(std::string_view record_id);

  /// SHA-256 of the newest event's encoding, the next event's prev_hash:
  /// empty before the first event. Requires mu_ held.
  Slice LastHashLocked() const {
    return offsets_.empty() ? Slice()
                            : Slice(last_hash_.data(), last_hash_.size());
  }

  static constexpr uint64_t kNoSeq = ~uint64_t{0};

  mutable std::mutex mu_;
  storage::Env* env_;
  std::string path_;
  std::unique_ptr<storage::log::Writer> writer_;
  std::unique_ptr<storage::RandomAccessFile> file_;  ///< read-back handle
  crypto::MerkleTree tree_;
  /// offsets_[seq]: file offset of event seq's record. Deques grow in
  /// fixed blocks, so these cost 8 B per event with no doubling slack.
  std::deque<uint64_t> offsets_;
  std::vector<SignedCheckpoint> checkpoints_;  ///< ascending tree_size
  /// Per-record seq lists, threaded through the log: the newest seq
  /// naming each record, and for every event the previous seq naming
  /// the same record (kNoSeq at a list's start or for recordless
  /// events). The newest seq sits in last_seq_ at the record's ordinal,
  /// or, for an id the table does not hold (a denied probe of an
  /// unknown id, a record not yet replayed), in stray_last_seq_ until
  /// the table holds it and its next event moves it over.
  const RecordTable* records_;
  std::deque<uint64_t> last_seq_;
  std::unordered_map<RecordId, uint64_t> stray_last_seq_;
  std::deque<uint64_t> prev_seq_in_record_;
  /// Patient-scoped disclosure index: kBreakGlass and kConsentGrant
  /// seqs per patient. Seqs are naturally ascending (append order).
  std::unordered_map<PrincipalId, std::vector<uint64_t>>
      breakglass_seqs_by_patient_;
  std::unordered_map<PrincipalId, std::vector<uint64_t>>
      consent_seqs_by_patient_;
  std::array<char, crypto::kDigestSize> last_hash_{};
  bool open_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_AUDIT_H_
