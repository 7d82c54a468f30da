#include "core/provenance.h"

#include <algorithm>

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

Result<CustodyEventView> CustodyEventView::Parse(const Slice& data) {
  Slice in = data;
  CustodyEventView e;
  uint64_t ts = 0;
  if (!GetLengthPrefixed(&in, &e.record_id) || in.empty()) {
    return Status::Corruption("malformed custody event");
  }
  e.type = static_cast<CustodyEventType>(in[0]);
  in.RemovePrefix(1);
  if (!GetLengthPrefixed(&in, &e.actor) ||
      !GetLengthPrefixed(&in, &e.system_id) || !GetFixed64(&in, &ts) ||
      !GetLengthPrefixed(&in, &e.details) ||
      !GetLengthPrefixed(&in, &e.prev_hash) || !in.empty()) {
    return Status::Corruption("malformed custody event");
  }
  e.timestamp = static_cast<Timestamp>(ts);
  return e;
}

Result<CustodyEvent> CustodyEvent::Decode(const Slice& data) {
  MEDVAULT_ASSIGN_OR_RETURN(CustodyEventView v, CustodyEventView::Parse(data));
  CustodyEvent e;
  e.record_id = v.record_id.ToString();
  e.type = v.type;
  e.actor = v.actor.ToString();
  e.system_id = v.system_id.ToString();
  e.timestamp = v.timestamp;
  e.details = v.details.ToString();
  e.prev_hash = v.prev_hash.ToString();
  return e;
}

ProvenanceTracker::ProvenanceTracker(storage::Env* env, std::string path,
                                     std::string system_id,
                                     RecordTable* records)
    : env_(env),
      path_(std::move(path)),
      system_id_(std::move(system_id)),
      records_(records == nullptr ? &own_records_ : records) {}

const ProvenanceTracker::Chain* ProvenanceTracker::Find(
    const RecordId& record_id) const {
  const uint32_t ordinal = records_->Find(record_id);
  if (ordinal >= chains_.size() || chains_[ordinal].events.empty()) {
    return nullptr;
  }
  return &chains_[ordinal];
}

size_t ProvenanceTracker::RecordCount() const {
  return std::count_if(chains_.begin(), chains_.end(),
                       [](const Chain& c) { return !c.events.empty(); });
}

Status ProvenanceTracker::Open() {
  // An event's read bound is the next event's offset, or the log's end.
  storage::log::RecordSpan* newest = nullptr;
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, path_,
      [&](const Slice& record, uint64_t offset) -> Status {
        MEDVAULT_ASSIGN_OR_RETURN(CustodyEventView e,
                                  CustodyEventView::Parse(record));
        if (newest != nullptr) newest->limit = offset;
        const uint32_t r = records_->Intern(e.record_id.ToStringView());
        newest = &AddEvent(&SlotAt(&chains_, r), record, offset, 0);
        return Status::OK();
      },
      &res));
  if (newest != nullptr) newest->limit = res.valid_size;
  writer_ = std::move(res.writer);
  MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(path_, &file_));
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

storage::log::RecordSpan& ProvenanceTracker::AddEvent(
    Chain* chain, const Slice& encoded, uint64_t offset, uint64_t limit) {
  crypto::Sha256 head;
  head.Update(encoded);
  head.Finish(reinterpret_cast<uint8_t*>(chain->head.data()));
  chain->events.push_back(storage::log::RecordSpan{offset, limit});
  return chain->events.back();
}

Status ProvenanceTracker::LogEvent(const RecordId& record_id,
                                   const CustodyEvent& e) {
  const std::string encoded = e.Encode();
  uint64_t offset = 0;
  MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(encoded, &offset));
  AddEvent(&SlotAt(&chains_, records_->Intern(record_id)), encoded, offset,
           writer_->FileOffset());
  return Status::OK();
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
  MEDVAULT_RETURN_IF_ERROR(LogEvent(record_id, e));
  return ChainHead(record_id);
}

Status ProvenanceTracker::ReadChain(
    const RecordId& record_id,
    const std::function<void(const Slice&, CustodyEvent&&)>& fn) const {
  const Chain* chain = Find(record_id);
  if (chain == nullptr) return Status::NotFound("no custody chain");
  std::string prev;
  std::string record;
  for (const storage::log::RecordSpan& span : chain->events) {
    Status read =
        storage::log::ReadRecordAt(*file_, span.offset, span.limit, &record);
    if (read.IsCorruption()) {
      return Status::TamperDetected("custody event of " + record_id +
                                    " unreadable: " + read.message());
    }
    MEDVAULT_RETURN_IF_ERROR(read);
    Result<CustodyEvent> e = CustodyEvent::Decode(record);
    if (!e.ok() || e->record_id != record_id || e->prev_hash != prev) {
      return Status::TamperDetected("custody chain of " + record_id +
                                    " broken");
    }
    prev = crypto::Sha256Digest(record);
    fn(record, std::move(*e));
  }
  if (prev != ChainHead(record_id)) {
    return Status::TamperDetected("custody chain of " + record_id +
                                  " does not end at its head");
  }
  return Status::OK();
}

Result<std::vector<CustodyEvent>> ProvenanceTracker::GetChain(
    const RecordId& record_id) const {
  std::vector<CustodyEvent> events;
  MEDVAULT_RETURN_IF_ERROR(
      ReadChain(record_id, [&](const Slice&, CustodyEvent&& e) {
        events.push_back(std::move(e));
      }));
  return events;
}

std::string ProvenanceTracker::ChainHead(const RecordId& record_id) const {
  const Chain* chain = Find(record_id);
  if (chain == nullptr) return std::string();
  return std::string(chain->head.data(), chain->head.size());
}

Status ProvenanceTracker::VerifyChain(const RecordId& record_id) const {
  return ReadChain(record_id, [](const Slice&, CustodyEvent&&) {});
}

Status ProvenanceTracker::VerifyAllChains() const {
  if (!open_) return Status::FailedPrecondition("provenance not open");
  // In id order, so the first broken chain reported is the same one
  // on every run.
  uint64_t chained = 0;
  for (uint32_t r : records_->ById(chains_.size(), [this](uint32_t r) {
         return !chains_[r].events.empty();
       })) {
    MEDVAULT_RETURN_IF_ERROR(VerifyChain(records_->id(r)));
    chained += chains_[r].events.size();
  }
  // Every whole record on the log must be one of the events just
  // verified: an appended event outside them is tampering too.
  std::unique_ptr<storage::SequentialFile> src;
  MEDVAULT_RETURN_IF_ERROR(env_->NewSequentialFile(path_, &src));
  storage::log::Reader reader(std::move(src));
  uint64_t logged = 0;
  std::string record;
  while (reader.ReadRecord(&record)) logged++;
  if (reader.status().IsCorruption()) {
    return Status::TamperDetected("custody log bytes corrupted: " +
                                  reader.status().message());
  }
  MEDVAULT_RETURN_IF_ERROR(reader.status());
  if (logged != chained) {
    return Status::TamperDetected("custody log holds events outside chains");
  }
  return Status::OK();
}

Result<std::string> ProvenanceTracker::ExportChain(
    const RecordId& record_id) const {
  uint32_t count = 0;
  std::string events;
  MEDVAULT_RETURN_IF_ERROR(
      ReadChain(record_id, [&](const Slice& encoded, CustodyEvent&&) {
        PutLengthPrefixed(&events, encoded);
        count++;
      }));
  std::string out;
  PutVarint32(&out, count);
  out += events;
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
  if (Find(record_id) != nullptr) {
    return Status::AlreadyExists("record already has a custody chain here");
  }
  Slice in = data;
  uint32_t count = 0;
  if (!GetVarint32(&in, &count)) {
    return Status::Corruption("malformed custody export");
  }
  std::vector<CustodyEvent> events;
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
  std::string prev;
  for (const CustodyEvent& e : events) {
    if (e.prev_hash != prev) {
      return Status::TamperDetected("custody chain broken");
    }
    prev = crypto::Sha256Digest(e.Encode());
  }

  // Re-log the imported events so they persist locally.
  for (const CustodyEvent& e : events) {
    MEDVAULT_RETURN_IF_ERROR(LogEvent(record_id, e));
  }
  return Status::OK();
}

}  // namespace medvault::core
