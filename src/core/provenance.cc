#include "core/provenance.h"

#include "common/coding.h"
#include "crypto/sha256.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"

namespace medvault::core {

const char* CustodyEventTypeName(CustodyEventType type) {
  switch (type) {
    case CustodyEventType::kCreated: return "created";
    case CustodyEventType::kAccessed: return "accessed";
    case CustodyEventType::kCorrected: return "corrected";
    case CustodyEventType::kMigratedOut: return "migrated-out";
    case CustodyEventType::kMigratedIn: return "migrated-in";
    case CustodyEventType::kBackedUp: return "backed-up";
    case CustodyEventType::kRestored: return "restored";
    case CustodyEventType::kDisposed: return "disposed";
    case CustodyEventType::kCustodyTransferred: return "custody-transferred";
  }
  return "unknown";
}

std::string CustodyEvent::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, record_id);
  out.push_back(static_cast<char>(type));
  PutLengthPrefixed(&out, actor);
  PutLengthPrefixed(&out, system_id);
  PutFixed64(&out, static_cast<uint64_t>(timestamp));
  PutLengthPrefixed(&out, details);
  PutLengthPrefixed(&out, prev_hash);
  return out;
}

Result<CustodyEvent> CustodyEvent::Decode(const Slice& data) {
  Slice in = data;
  CustodyEvent e;
  uint64_t ts = 0;
  if (!GetLengthPrefixedString(&in, &e.record_id) || in.empty()) {
    return Status::Corruption("malformed custody event");
  }
  e.type = static_cast<CustodyEventType>(in[0]);
  in.RemovePrefix(1);
  if (!GetLengthPrefixedString(&in, &e.actor) ||
      !GetLengthPrefixedString(&in, &e.system_id) ||
      !GetFixed64(&in, &ts) ||
      !GetLengthPrefixedString(&in, &e.details) ||
      !GetLengthPrefixedString(&in, &e.prev_hash) || !in.empty()) {
    return Status::Corruption("malformed custody event");
  }
  e.timestamp = static_cast<Timestamp>(ts);
  return e;
}

ProvenanceTracker::ProvenanceTracker(storage::Env* env, std::string path,
                                     std::string system_id)
    : env_(env), path_(std::move(path)), system_id_(std::move(system_id)) {}

Status ProvenanceTracker::Open() {
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, path_,
      [this](const Slice& record, uint64_t) -> Status {
        MEDVAULT_ASSIGN_OR_RETURN(CustodyEvent e,
                                  CustodyEvent::Decode(record));
        heads_[e.record_id] = crypto::Sha256Digest(record.ToString());
        chains_[e.record_id].push_back(std::move(e));
        return Status::OK();
      },
      &res));
  writer_ = std::move(res.writer);
  open_ = true;
  return Status::OK();
}

Status ProvenanceTracker::Sync() {
  if (!open_) return Status::FailedPrecondition("provenance not open");
  return writer_->Sync();
}

storage::WritableFile* ProvenanceTracker::sync_target() {
  if (!open_) return nullptr;
  return writer_->file();
}

Result<std::string> ProvenanceTracker::RecordEvent(
    const RecordId& record_id, CustodyEventType type,
    const PrincipalId& actor, const std::string& details, Timestamp now) {
  if (!open_) return Status::FailedPrecondition("provenance not open");
  CustodyEvent e;
  e.record_id = record_id;
  e.type = type;
  e.actor = actor;
  e.system_id = system_id_;
  e.timestamp = now;
  e.details = details;
  e.prev_hash = ChainHead(record_id);

  std::string encoded = e.Encode();
  MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(encoded));
  std::string head = crypto::Sha256Digest(encoded);
  heads_[record_id] = head;
  chains_[record_id].push_back(std::move(e));
  return head;
}

Result<std::vector<CustodyEvent>> ProvenanceTracker::GetChain(
    const RecordId& record_id) const {
  auto it = chains_.find(record_id);
  if (it == chains_.end()) return Status::NotFound("no custody chain");
  return it->second;
}

std::string ProvenanceTracker::ChainHead(const RecordId& record_id) const {
  auto it = heads_.find(record_id);
  return it == heads_.end() ? std::string() : it->second;
}

Status ProvenanceTracker::VerifyEvents(
    const std::vector<CustodyEvent>& events) {
  std::string prev;
  for (const CustodyEvent& e : events) {
    if (e.prev_hash != prev) {
      return Status::TamperDetected("custody chain broken");
    }
    prev = crypto::Sha256Digest(e.Encode());
  }
  return Status::OK();
}

Status ProvenanceTracker::VerifyChain(const RecordId& record_id) const {
  auto it = chains_.find(record_id);
  if (it == chains_.end()) return Status::NotFound("no custody chain");
  return VerifyEvents(it->second);
}

Status ProvenanceTracker::VerifyAllChains() const {
  for (const auto& [record_id, events] : chains_) {
    MEDVAULT_RETURN_IF_ERROR(VerifyEvents(events));
  }
  return Status::OK();
}

Result<std::string> ProvenanceTracker::ExportChain(
    const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<CustodyEvent> events,
                            GetChain(record_id));
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(events.size()));
  for (const CustodyEvent& e : events) {
    PutLengthPrefixed(&out, e.Encode());
  }
  // Terminal head commits to the last event (which nothing chains
  // after). Naive corruption of the export is caught here; malicious
  // substitution of the whole export is covered by the dual-signed
  // migration receipt at the layer above.
  PutLengthPrefixed(&out, ChainHead(record_id));
  return out;
}

Status ProvenanceTracker::ImportChain(const RecordId& record_id,
                                      const Slice& data) {
  if (!open_) return Status::FailedPrecondition("provenance not open");
  if (chains_.count(record_id) > 0) {
    return Status::AlreadyExists("record already has a custody chain here");
  }
  Slice in = data;
  uint32_t count = 0;
  if (!GetVarint32(&in, &count)) {
    return Status::Corruption("malformed custody export");
  }
  std::vector<CustodyEvent> events;
  events.reserve(count);
  std::string computed_head;
  for (uint32_t i = 0; i < count; i++) {
    Slice enc;
    if (!GetLengthPrefixed(&in, &enc)) {
      return Status::Corruption("malformed custody export entry");
    }
    MEDVAULT_ASSIGN_OR_RETURN(CustodyEvent e, CustodyEvent::Decode(enc));
    if (e.record_id != record_id) {
      return Status::InvalidArgument("custody export for wrong record");
    }
    computed_head = crypto::Sha256Digest(enc);
    events.push_back(std::move(e));
  }
  std::string claimed_head;
  if (!GetLengthPrefixedString(&in, &claimed_head) || !in.empty()) {
    return Status::Corruption("custody export missing terminal head");
  }
  if (claimed_head != computed_head) {
    return Status::TamperDetected("custody export head mismatch");
  }
  MEDVAULT_RETURN_IF_ERROR(VerifyEvents(events));

  // Re-log the imported events so they persist locally.
  std::string head;
  for (const CustodyEvent& e : events) {
    std::string encoded = e.Encode();
    MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(encoded));
    head = crypto::Sha256Digest(encoded);
  }
  heads_[record_id] = head;
  chains_[record_id] = std::move(events);
  return Status::OK();
}

}  // namespace medvault::core
