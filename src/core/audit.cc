#include "core/audit.h"

#include <algorithm>

#include "common/coding.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"

namespace medvault::core {

namespace {

constexpr uint8_t kRecordEvent = 1;
constexpr uint8_t kRecordCheckpoint = 2;

/// The hash chain's link: SHA-256 of an event's encoding, the next
/// event's prev_hash.
void ChainDigest(const Slice& payload,
                 std::array<char, crypto::kDigestSize>* out) {
  crypto::Sha256 sha;
  sha.Update(payload);
  sha.Finish(reinterpret_cast<uint8_t*>(out->data()));
}

}  // namespace

const char* AuditActionName(AuditAction action) {
  switch (action) {
    case AuditAction::kCreate: return "create";
    case AuditAction::kRead: return "read";
    case AuditAction::kCorrect: return "correct";
    case AuditAction::kSearch: return "search";
    case AuditAction::kDispose: return "dispose";
    case AuditAction::kBreakGlass: return "break-glass";
    case AuditAction::kAccessDenied: return "access-denied";
    case AuditAction::kMigrateOut: return "migrate-out";
    case AuditAction::kMigrateIn: return "migrate-in";
    case AuditAction::kBackup: return "backup";
    case AuditAction::kRestore: return "restore";
    case AuditAction::kKeyRotation: return "key-rotation";
    case AuditAction::kCustodyTransfer: return "custody-transfer";
    case AuditAction::kPolicyChange: return "policy-change";
    case AuditAction::kRecovery: return "recovery";
    case AuditAction::kConsentGrant: return "consent-grant";
    case AuditAction::kConsentRevoke: return "consent-revoke";
  }
  return "unknown";
}

std::string AuditEvent::Encode() const {
  std::string out;
  PutVarint64(&out, seq);
  PutFixed64(&out, static_cast<uint64_t>(timestamp));
  PutLengthPrefixed(&out, actor);
  out.push_back(static_cast<char>(action));
  PutLengthPrefixed(&out, record_id);
  PutLengthPrefixed(&out, details);
  PutLengthPrefixed(&out, prev_hash);
  return out;
}

Result<AuditEventView> AuditEventView::Parse(const Slice& data) {
  Slice in = data;
  AuditEventView e;
  uint64_t ts = 0;
  if (!GetVarint64(&in, &e.seq) || !GetFixed64(&in, &ts) ||
      !GetLengthPrefixed(&in, &e.actor) || in.empty()) {
    return Status::Corruption("malformed audit event");
  }
  e.timestamp = static_cast<Timestamp>(ts);
  e.action = static_cast<AuditAction>(in[0]);
  in.RemovePrefix(1);
  if (!GetLengthPrefixed(&in, &e.record_id) ||
      !GetLengthPrefixed(&in, &e.details) ||
      !GetLengthPrefixed(&in, &e.prev_hash) || !in.empty()) {
    return Status::Corruption("malformed audit event");
  }
  return e;
}

Result<AuditEvent> AuditEvent::Decode(const Slice& data) {
  MEDVAULT_ASSIGN_OR_RETURN(AuditEventView v, AuditEventView::Parse(data));
  AuditEvent e;
  e.seq = v.seq;
  e.timestamp = v.timestamp;
  e.actor = v.actor.ToString();
  e.action = v.action;
  e.record_id = v.record_id.ToString();
  e.details = v.details.ToString();
  e.prev_hash = v.prev_hash.ToString();
  return e;
}

std::string SignedCheckpoint::SignedPayload() const {
  std::string out = "medvault-checkpoint-v1";
  PutVarint64(&out, tree_size);
  PutLengthPrefixed(&out, root);
  PutFixed64(&out, static_cast<uint64_t>(timestamp));
  return out;
}

std::string SignedCheckpoint::Encode() const {
  std::string out;
  PutVarint64(&out, tree_size);
  PutLengthPrefixed(&out, root);
  PutFixed64(&out, static_cast<uint64_t>(timestamp));
  PutLengthPrefixed(&out, signature);
  return out;
}

Result<SignedCheckpoint> SignedCheckpoint::Decode(const Slice& data) {
  Slice in = data;
  SignedCheckpoint c;
  uint64_t ts = 0;
  if (!GetVarint64(&in, &c.tree_size) ||
      !GetLengthPrefixedString(&in, &c.root) || !GetFixed64(&in, &ts) ||
      !GetLengthPrefixedString(&in, &c.signature) || !in.empty()) {
    return Status::Corruption("malformed checkpoint");
  }
  c.timestamp = static_cast<Timestamp>(ts);
  return c;
}

AuditLog::AuditLog(storage::Env* env, std::string path,
                   const RecordTable* records)
    : env_(env), path_(std::move(path)), records_(records) {}

Status AuditLog::Open() {
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, path_,
      [this](const Slice& rec, uint64_t offset) -> Status {
        if (rec.empty()) return Status::Corruption("empty audit record");
        uint8_t kind = static_cast<uint8_t>(rec[0]);
        Slice payload(rec.data() + 1, rec.size() - 1);
        if (kind == kRecordEvent) {
          MEDVAULT_ASSIGN_OR_RETURN(AuditEventView e,
                                    AuditEventView::Parse(payload));
          if (e.seq != offsets_.size()) {
            return Status::TamperDetected("audit sequence discontinuity");
          }
          if (e.prev_hash != LastHashLocked()) {
            return Status::TamperDetected("audit hash chain broken");
          }
          ChainDigest(payload, &last_hash_);
          AddEventLocked(e, payload, offset);
        } else if (kind == kRecordCheckpoint) {
          MEDVAULT_ASSIGN_OR_RETURN(SignedCheckpoint c,
                                    SignedCheckpoint::Decode(payload));
          checkpoints_.push_back(std::move(c));
        } else {
          return Status::Corruption("unknown audit record kind");
        }
        return Status::OK();
      },
      &res));
  writer_ = std::move(res.writer);
  MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(path_, &file_));
  open_ = true;
  return Status::OK();
}

Status AuditLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("audit log not open");
  return writer_->Sync();
}

storage::WritableFile* AuditLog::sync_target() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return nullptr;
  return writer_->file();
}

namespace {

/// Extracts "<id>" from details formatted "patient=<id> ...". The
/// trailing space is required — matching the report's matcher exactly,
/// so the indexed report can never differ from a full scan.
bool ParsePatientToken(const Slice& details, std::string* patient) {
  constexpr std::string_view kPrefix = "patient=";
  const std::string_view text = details.ToStringView();
  if (text.substr(0, kPrefix.size()) != kPrefix) return false;
  size_t space = text.find(' ', kPrefix.size());
  if (space == std::string_view::npos) return false;
  *patient = text.substr(kPrefix.size(), space - kPrefix.size());
  return true;
}

/// The fields of an event about to be appended, as the view replay
/// hands to AddEventLocked.
AuditEventView ViewOf(const AuditEvent& e) {
  AuditEventView v;
  v.seq = e.seq;
  v.timestamp = e.timestamp;
  v.actor = e.actor;
  v.action = e.action;
  v.record_id = e.record_id;
  v.details = e.details;
  v.prev_hash = e.prev_hash;
  return v;
}

}  // namespace

uint64_t& AuditLog::LastSeqLocked(std::string_view record_id) {
  const uint32_t r =
      records_ != nullptr ? records_->Find(record_id) : RecordTable::kNone;
  if (r == RecordTable::kNone) {
    return stray_last_seq_.try_emplace(std::string(record_id), kNoSeq)
        .first->second;
  }
  uint64_t& last = SlotAt(&last_seq_, r, kNoSeq);
  if (last == kNoSeq && !stray_last_seq_.empty()) {
    auto stray = stray_last_seq_.find(std::string(record_id));
    if (stray != stray_last_seq_.end()) {
      last = stray->second;
      stray_last_seq_.erase(stray);
    }
  }
  return last;
}

void AuditLog::IndexEventLocked(const AuditEventView& event) {
  uint64_t prev = kNoSeq;
  if (!event.record_id.empty()) {
    prev = std::exchange(LastSeqLocked(event.record_id.ToStringView()),
                         event.seq);
  }
  prev_seq_in_record_.push_back(prev);
  if (event.action == AuditAction::kBreakGlass) {
    // Break-glass details are formatted "patient=<id> grant=...".
    std::string patient;
    if (ParsePatientToken(event.details, &patient)) {
      breakglass_seqs_by_patient_[patient].push_back(event.seq);
    }
  } else if (event.action == AuditAction::kConsentGrant) {
    // Consent grants are formatted "patient=<id> grantee=..." — the
    // grant names its recipient, so it is a reportable disclosure
    // decision; revocations disclose nothing and are not indexed.
    std::string patient;
    if (ParsePatientToken(event.details, &patient)) {
      consent_seqs_by_patient_[patient].push_back(event.seq);
    }
  }
}

void AuditLog::AddEventLocked(const AuditEventView& event,
                              const Slice& payload, uint64_t offset) {
  tree_.Append(payload);
  IndexEventLocked(event);
  offsets_.push_back(offset);
}

Result<uint64_t> AuditLog::AppendEventLocked(AuditEvent event) {
  event.seq = offsets_.size();
  event.prev_hash = LastHashLocked().ToString();
  std::string record(1, static_cast<char>(kRecordEvent));
  record.append(event.Encode());
  uint64_t offset = 0;
  MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(record, &offset));
  const Slice payload(record.data() + 1, record.size() - 1);
  ChainDigest(payload, &last_hash_);
  AddEventLocked(ViewOf(event), payload, offset);
  return event.seq;
}

Result<uint64_t> AuditLog::Append(const PrincipalId& actor,
                                  AuditAction action,
                                  const RecordId& record_id,
                                  const std::string& details, Timestamp now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("audit log not open");
  AuditEvent e;
  e.timestamp = now;
  e.actor = actor;
  e.action = action;
  e.record_id = record_id;
  e.details = details;
  return AppendEventLocked(std::move(e));
}

Result<uint64_t> AuditLog::AppendBatch(
    const std::vector<PendingAuditEvent>& batch, Timestamp now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("audit log not open");
  if (batch.empty()) return offsets_.size();

  // Encode all events first: the chain links each payload to the hash of
  // the previous one, so the encodings must be fixed before the write.
  std::vector<AuditEvent> events;
  std::vector<std::string> records;
  events.reserve(batch.size());
  records.reserve(batch.size());
  const uint64_t first_seq = offsets_.size();
  std::string chain = LastHashLocked().ToString();
  for (size_t i = 0; i < batch.size(); ++i) {
    AuditEvent e;
    e.seq = first_seq + i;
    e.timestamp = now;
    e.actor = batch[i].actor;
    e.action = batch[i].action;
    e.record_id = batch[i].record_id;
    e.details = batch[i].details;
    e.prev_hash = chain;
    std::string record(1, static_cast<char>(kRecordEvent));
    record.append(e.Encode());
    chain = crypto::Sha256Digest(Slice(record.data() + 1, record.size() - 1));
    records.push_back(std::move(record));
    events.push_back(std::move(e));
  }
  std::vector<Slice> slices(records.begin(), records.end());
  std::vector<uint64_t> offsets(batch.size());
  Status written =
      writer_->AddRecords(slices.data(), slices.size(), offsets.data());
  if (!written.ok()) {
    // The buffered write can land a partial prefix on disk before
    // failing (torn I/O), so this is NOT an all-or-nothing failure:
    // surface it distinctly so callers (the replica apply path above
    // all) know the on-disk log may hold a torn batch tail that crash
    // recovery will truncate. The in-memory chain, tree and sequence
    // deliberately do NOT advance — an acknowledged event must never
    // depend on unacknowledged bytes.
    return Status::WithContext(
        written, "partial audit batch append (on-disk tail may be torn)");
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    AddEventLocked(ViewOf(events[i]),
                   Slice(records[i].data() + 1, records[i].size() - 1),
                   offsets[i]);
  }
  std::copy(chain.begin(), chain.end(), last_hash_.begin());
  return first_seq;
}

Result<SignedCheckpoint> AuditLog::Checkpoint(crypto::XmssSigner* signer,
                                              Timestamp now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("audit log not open");
  SignedCheckpoint c;
  c.tree_size = tree_.size();
  c.root = tree_.Root();
  c.timestamp = now;
  MEDVAULT_ASSIGN_OR_RETURN(crypto::XmssSignature sig,
                            signer->Sign(c.SignedPayload()));
  c.signature = sig.Encode();

  std::string record;
  record.push_back(static_cast<char>(kRecordCheckpoint));
  record.append(c.Encode());
  MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(record));
  MEDVAULT_RETURN_IF_ERROR(writer_->Sync());
  checkpoints_.push_back(c);
  return c;
}

Status AuditLog::VerifyAll(const Slice& signer_public_key,
                           const Slice& signer_public_seed,
                           int signer_height) const {
  // Re-read everything from disk; trust nothing in memory.
  std::unique_ptr<storage::SequentialFile> src;
  MEDVAULT_RETURN_IF_ERROR(env_->NewSequentialFile(path_, &src));
  storage::log::Reader reader(std::move(src));

  // RFC 6962/9162 compact range over the events read so far: one
  // subtree root per 1 bit of the count, largest first (at most 64).
  std::vector<std::string> range;
  std::string last_hash;
  uint64_t expected_seq = 0;
  std::string record;
  while (reader.ReadRecord(&record)) {
    if (record.empty()) return Status::TamperDetected("empty audit record");
    uint8_t kind = static_cast<uint8_t>(record[0]);
    Slice payload(record.data() + 1, record.size() - 1);
    if (kind == kRecordEvent) {
      MEDVAULT_ASSIGN_OR_RETURN(AuditEventView e,
                                AuditEventView::Parse(payload));
      if (e.seq != expected_seq) {
        return Status::TamperDetected("audit sequence discontinuity");
      }
      if (e.prev_hash != Slice(last_hash)) {
        return Status::TamperDetected("audit hash chain broken");
      }
      last_hash = crypto::Sha256Digest(payload);
      std::string h = crypto::MerkleTree::HashLeaf(payload);
      // Each trailing 1 bit of the count is a same-sized subtree.
      for (uint64_t n = expected_seq; (n & 1) != 0; n >>= 1) {
        h = crypto::MerkleTree::HashNode(range.back(), h);
        range.pop_back();
      }
      range.push_back(std::move(h));
      expected_seq++;
    } else if (kind == kRecordCheckpoint) {
      MEDVAULT_ASSIGN_OR_RETURN(SignedCheckpoint c,
                                SignedCheckpoint::Decode(payload));
      MEDVAULT_ASSIGN_OR_RETURN(crypto::XmssSignature sig,
                                crypto::XmssSignature::Decode(c.signature));
      MEDVAULT_RETURN_IF_ERROR(crypto::XmssSigner::Verify(
          c.SignedPayload(), sig, signer_public_key, signer_public_seed,
          signer_height));
      // Checkpoint() reads the size and appends under one lock hold:
      // a checkpoint covers exactly the events before it.
      if (c.tree_size > expected_seq) {
        return Status::TamperDetected(
            "checkpoint covers more events than present (truncation)");
      }
      if (c.tree_size < expected_seq) {
        return Status::TamperDetected(
            "checkpoint covers fewer events than precede it");
      }
      std::string root =
          range.empty() ? crypto::MerkleTree::EmptyRoot() : range.back();
      for (size_t i = range.size(); i-- > 1;) {
        root = crypto::MerkleTree::HashNode(range[i - 1], root);
      }
      if (!crypto::ConstantTimeEqual(root, c.root)) {
        return Status::TamperDetected("checkpoint root mismatch");
      }
    } else {
      return Status::TamperDetected("unknown audit record kind");
    }
  }
  if (reader.status().IsCorruption()) {
    return Status::TamperDetected("audit log bytes corrupted: " +
                                  reader.status().message());
  }
  MEDVAULT_RETURN_IF_ERROR(reader.status());
  return Status::OK();
}

Status AuditLog::VerifyAgainstTrusted(const SignedCheckpoint& trusted) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (trusted.tree_size > tree_.size()) {
    return Status::TamperDetected(
        "log shorter than trusted checkpoint (truncation)");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> proof,
                            tree_.ConsistencyProof(trusted.tree_size,
                                                   tree_.size()));
  return crypto::MerkleTree::VerifyConsistency(
      trusted.tree_size, trusted.root, tree_.size(), tree_.Root(), proof);
}

Result<EventProof> AuditLog::ProveEvent(uint64_t seq) const {
  return ProveEventAt(seq, size());
}

Result<EventProof> AuditLog::ProveEventAt(uint64_t seq,
                                          uint64_t tree_size) const {
  EventProof proof;
  EventLocation at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq >= offsets_.size()) {
      return Status::NotFound("no such audit event");
    }
    if (tree_size > tree_.size()) {
      return Status::NotFound("tree size exceeds audit log");
    }
    if (seq >= tree_size) {
      return Status::InvalidArgument(
          "event not covered by requested tree size");
    }
    proof.tree_size = tree_size;
    MEDVAULT_ASSIGN_OR_RETURN(proof.path,
                              tree_.InclusionProof(seq, tree_size));
    at = LocateLocked(seq);
  }
  MEDVAULT_ASSIGN_OR_RETURN(proof.event, ReadBack(at));
  return proof;
}

Result<std::vector<std::string>> AuditLog::ConsistencyProofBetween(
    uint64_t old_size, uint64_t new_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (new_size > tree_.size()) {
    return Status::NotFound("tree size exceeds audit log");
  }
  return tree_.ConsistencyProof(old_size, new_size);
}

Status AuditLog::VerifyEventProof(const EventProof& proof,
                                  const Slice& root) {
  std::string leaf_hash =
      crypto::MerkleTree::HashLeaf(proof.event.Encode());
  return crypto::MerkleTree::VerifyInclusion(
      leaf_hash, proof.event.seq, proof.tree_size, proof.path, root);
}

Result<SignedCheckpoint> AuditLog::LatestCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoints_.empty()) {
    return Status::NotFound("no checkpoint published");
  }
  return checkpoints_.back();
}

Result<SignedCheckpoint> AuditLog::CheckpointAt(uint64_t tree_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  // checkpoints_ ascends by tree_size (each signs the head it was taken
  // at); of several at one size, the latest wins.
  auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), tree_size,
      [](uint64_t size, const SignedCheckpoint& c) {
        return size < c.tree_size;
      });
  if (it == checkpoints_.begin() || std::prev(it)->tree_size != tree_size) {
    return Status::NotFound("no checkpoint at that size");
  }
  return *std::prev(it);
}

std::vector<uint64_t> AuditLog::SeqsForRecord(
    const RecordId& record_id) const {
  std::vector<uint64_t> seqs;
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t r =
      records_ != nullptr ? records_->Find(record_id) : RecordTable::kNone;
  uint64_t last = r < last_seq_.size() ? last_seq_[r] : kNoSeq;
  if (last == kNoSeq) {
    auto stray = stray_last_seq_.find(record_id);
    if (stray != stray_last_seq_.end()) last = stray->second;
  }
  for (uint64_t seq = last; seq != kNoSeq; seq = prev_seq_in_record_[seq]) {
    seqs.push_back(seq);
  }
  std::reverse(seqs.begin(), seqs.end());
  return seqs;
}

std::vector<uint64_t> AuditLog::BreakGlassSeqsForPatient(
    const PrincipalId& patient_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakglass_seqs_by_patient_.find(patient_id);
  if (it == breakglass_seqs_by_patient_.end()) return {};
  return it->second;
}

std::vector<uint64_t> AuditLog::BreakGlassSeqs() const {
  std::vector<uint64_t> seqs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [patient, list] : breakglass_seqs_by_patient_) {
      seqs.insert(seqs.end(), list.begin(), list.end());
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::vector<uint64_t> AuditLog::ConsentSeqsForPatient(
    const PrincipalId& patient_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = consent_seqs_by_patient_.find(patient_id);
  if (it == consent_seqs_by_patient_.end()) return {};
  return it->second;
}

AuditLog::EventLocation AuditLog::LocateLocked(uint64_t seq) const {
  EventLocation at;
  at.seq = seq;
  at.offset = offsets_[seq];
  at.limit =
      seq + 1 < offsets_.size() ? offsets_[seq + 1] : writer_->FileOffset();
  at.leaf_hash = *tree_.LeafHash(seq);
  return at;
}

Result<AuditEvent> AuditLog::ReadBack(const EventLocation& at) const {
  std::string record;
  Status read = storage::log::ReadRecordAt(*file_, at.offset, at.limit,
                                           &record);
  if (read.IsCorruption()) {
    return Status::TamperDetected("audit event " + std::to_string(at.seq) +
                                  " unreadable: " + read.message());
  }
  MEDVAULT_RETURN_IF_ERROR(read);
  const bool is_event =
      !record.empty() && static_cast<uint8_t>(record[0]) == kRecordEvent;
  const Slice payload =
      is_event ? Slice(record.data() + 1, record.size() - 1) : Slice();
  if (!is_event ||
      !crypto::ConstantTimeEqual(crypto::MerkleTree::HashLeaf(payload),
                                 at.leaf_hash)) {
    return Status::TamperDetected("audit event " + std::to_string(at.seq) +
                                  " does not match its Merkle leaf");
  }
  return AuditEvent::Decode(payload);
}

Result<AuditEvent> AuditLog::EventAt(uint64_t seq) const {
  EventLocation at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq >= offsets_.size()) {
      return Status::NotFound("no such audit event");
    }
    at = LocateLocked(seq);
  }
  return ReadBack(at);
}

Status AuditLog::ForEachEvent(
    uint64_t begin, uint64_t max_events,
    const std::function<Status(const AuditEvent&)>& fn) const {
  const uint64_t end = size();
  for (uint64_t seq = begin; seq < end && seq - begin < max_events; ++seq) {
    MEDVAULT_ASSIGN_OR_RETURN(AuditEvent e, EventAt(seq));
    MEDVAULT_RETURN_IF_ERROR(fn(e));
  }
  return Status::OK();
}

}  // namespace medvault::core
