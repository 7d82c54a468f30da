#include "core/version_store.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/coding.h"
#include "crypto/aead.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"

namespace medvault::core {

Result<std::pair<VersionHeader, Slice>> ParseVersionEntry(
    const Slice& entry) {
  Slice in = entry;
  Slice header_bytes;
  if (!GetLengthPrefixed(&in, &header_bytes)) {
    return Status::Corruption("malformed version entry");
  }
  MEDVAULT_ASSIGN_OR_RETURN(VersionHeader header,
                            VersionHeader::Decode(header_bytes));
  return std::make_pair(std::move(header), in);
}

VersionStore::VersionStore(storage::Env* env, const std::string& dir,
                           KeyStore* keystore)
    : env_(env), dir_(dir), keystore_(keystore) {
  storage::SegmentStore::Options options;
  segments_ = std::make_unique<storage::SegmentStore>(env, dir + "/segments",
                                                      options);
}

Status VersionStore::Open() {
  MEDVAULT_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));
  MEDVAULT_RETURN_IF_ERROR(segments_->Open());

  const std::string catalog_path = dir_ + "/catalog.log";
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, catalog_path,
      [this](const Slice& rec, uint64_t) -> Status {
        Slice in = rec;
        Slice record_id, handle_bytes, entry_hash;
        uint32_t version = 0;
        if (!GetLengthPrefixed(&in, &record_id) ||
            !GetVarint32(&in, &version) ||
            !GetLengthPrefixed(&in, &handle_bytes) ||
            !GetLengthPrefixed(&in, &entry_hash) || !in.empty() ||
            entry_hash.size() != sizeof(Digest)) {
          return Status::Corruption("malformed catalog entry");
        }
        MEDVAULT_ASSIGN_OR_RETURN(storage::EntryHandle handle,
                                  storage::EntryHandle::Decode(handle_bytes));
        const uint32_t r = records()->Intern(record_id.ToStringView());
        Refs& refs = SlotAt(&catalog_, r);
        if (version != refs.size() + 1) {
          return Status::Corruption("catalog version discontinuity");
        }
        VersionRef& ref = refs.emplace_back(VersionRef{handle, {}});
        std::memcpy(ref.entry_hash.data(), entry_hash.data(),
                    ref.entry_hash.size());
        return Status::OK();
      },
      &res));
  catalog_writer_ = std::move(res.writer);
  open_ = true;
  return Status::OK();
}

const VersionStore::Refs* VersionStore::Find(
    const RecordId& record_id) const {
  const uint32_t ordinal = records()->Find(record_id);
  if (ordinal >= catalog_.size() || catalog_[ordinal].empty()) return nullptr;
  return &catalog_[ordinal];
}

std::vector<uint32_t> VersionStore::OrdinalsById() const {
  return records()->ById(catalog_.size(),
                         [this](uint32_t r) { return !catalog_[r].empty(); });
}

VersionStore::Digest VersionStore::HashEntry(const Slice& entry) {
  Digest hash{};
  crypto::Sha256 h;
  h.Update(entry);
  h.Finish(reinterpret_cast<uint8_t*>(hash.data()));
  return hash;
}

std::string VersionStore::EncodeCatalogEntry(
    const RecordId& record_id, uint32_t version,
    const storage::EntryHandle& handle, const Digest& entry_hash) {
  std::string record;
  PutLengthPrefixed(&record, record_id);
  PutVarint32(&record, version);
  PutLengthPrefixed(&record, handle.Encode());
  PutLengthPrefixed(&record, Slice(entry_hash.data(), entry_hash.size()));
  return record;
}

Status VersionStore::LogCatalogEntry(const RecordId& record_id,
                                     uint32_t version,
                                     const storage::EntryHandle& handle,
                                     const Digest& entry_hash) {
  return catalog_writer_->AddRecord(
      EncodeCatalogEntry(record_id, version, handle, entry_hash));
}

Status VersionStore::Sync() {
  if (!open_) return Status::FailedPrecondition("version store not open");
  // Entry bytes before the catalog pointer: a durable catalog reference
  // must never outlive the frame it points at.
  MEDVAULT_RETURN_IF_ERROR(segments_->SyncActive());
  return catalog_writer_->Sync();
}

storage::WritableFile* VersionStore::SegmentSyncTarget() {
  if (!open_) return nullptr;
  return segments_->ActiveSyncTarget();
}

Status VersionStore::SyncCatalog() {
  if (!open_) return Status::FailedPrecondition("version store not open");
  return catalog_writer_->Sync();
}

Status VersionStore::RewriteCatalog() {
  return storage::log::RewriteLog(
      env_, dir_ + "/catalog.log",
      [this](storage::log::Writer* tmp) -> Status {
        for (uint32_t r : OrdinalsById()) {
          const Refs& refs = catalog_[r];
          for (uint32_t v = 1; v <= refs.size(); v++) {
            MEDVAULT_RETURN_IF_ERROR(tmp->AddRecord(
                EncodeCatalogEntry(records()->id(r), v, refs[v - 1].handle,
                                   refs[v - 1].entry_hash)));
          }
        }
        return Status::OK();
      },
      &catalog_writer_, &catalog_rewrite_generation_);
}

Status VersionStore::ReconcileCatalog(
    std::vector<CommittedRecord>* committed, uint64_t* dropped_refs) {
  if (!open_) return Status::FailedPrecondition("version store not open");
  *dropped_refs = 0;
  for (uint32_t r = 0; r < catalog_.size(); ++r) {
    CommittedRecord* c = r < committed->size() ? &(*committed)[r] : nullptr;
    const bool is_committed = c != nullptr && c->committed;
    Refs& refs = catalog_[r];
    size_t keep = is_committed ? std::min<size_t>(refs.size(), c->latest) : 0;
    // A crash can lose the tail of the active segment after its catalog
    // entry was written. Never keep a reference whose frame is gone —
    // and since versions chain, cut everything after it too. Shredded
    // records are exempt: their media may have been legitimately
    // reclaimed, and the catalog entries are tombstones.
    if (is_committed && !c->shredded) {
      for (size_t v = 0; v < keep; v++) {
        if (!segments_->Contains(refs[v].handle)) {
          keep = v;
          break;
        }
      }
    }
    if (is_committed) c->kept = static_cast<uint32_t>(keep);
    if (keep < refs.size()) {
      *dropped_refs += refs.size() - keep;
      refs.resize(keep);
    }
  }
  if (*dropped_refs == 0) return Status::OK();
  return RewriteCatalog();
}

Result<VersionHeader> VersionStore::AppendVersion(
    const RecordId& record_id, const PrincipalId& author,
    const std::string& content_type, const std::string& reason,
    const Slice& plaintext, Timestamp now) {
  if (!open_) return Status::FailedPrecondition("version store not open");
  MEDVAULT_ASSIGN_OR_RETURN(std::string data_key,
                            keystore_->GetKey(record_id));

  Refs& refs = SlotAt(&catalog_, records()->Intern(record_id));
  VersionHeader header;
  header.record_id = record_id;
  header.version = static_cast<uint32_t>(refs.size() + 1);
  header.author = author;
  header.created_at = now;
  header.content_type = content_type;
  header.reason = reason;
  header.prev_version_hash =
      refs.empty() ? std::string() : HashString(refs.back().entry_hash);

  std::string header_bytes = header.Encode();
  crypto::Aead aead;
  MEDVAULT_RETURN_IF_ERROR(aead.Init(data_key));
  // Deterministic nonce: unique per (key, version) because versions are
  // monotonic and append-only — immune to the reopen-replay hazard a
  // counter/DRBG nonce would have.
  std::string nonce_full =
      crypto::HmacSha256(data_key, "medvault-version-nonce" + header_bytes);
  Slice nonce(nonce_full.data(), crypto::kCtrNonceSize);
  MEDVAULT_ASSIGN_OR_RETURN(std::string sealed,
                            aead.Seal(nonce, plaintext, header_bytes));

  std::string entry;
  PutLengthPrefixed(&entry, header_bytes);
  entry.append(sealed);

  MEDVAULT_ASSIGN_OR_RETURN(storage::EntryHandle handle,
                            segments_->Append(entry));
  const Digest entry_hash = HashEntry(entry);
  MEDVAULT_RETURN_IF_ERROR(
      LogCatalogEntry(record_id, header.version, handle, entry_hash));
  refs.push_back(VersionRef{handle, entry_hash});
  return header;
}

Result<std::string> VersionStore::ReadRawEntry(const RecordId& record_id,
                                               uint32_t version) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return Status::NotFound("unknown record");
  if (version == 0 || version > refs->size()) {
    return Status::NotFound("no such version");
  }
  return segments_->Read((*refs)[version - 1].handle);
}

Result<RecordVersion> VersionStore::ReadVersion(const RecordId& record_id,
                                                uint32_t version) const {
  if (!open_) return Status::FailedPrecondition("version store not open");
  // Key state first: a disposed record answers kKeyDestroyed whether or
  // not its (unreadable) media has been physically reclaimed.
  MEDVAULT_ASSIGN_OR_RETURN(std::string data_key,
                            keystore_->GetKey(record_id));
  auto raw = ReadRawEntry(record_id, version);
  if (!raw.ok()) {
    if (raw.status().IsCorruption()) {
      return Status::TamperDetected("version entry bytes corrupted");
    }
    return raw.status();
  }
  MEDVAULT_ASSIGN_OR_RETURN(auto parsed, ParseVersionEntry(*raw));
  const VersionHeader& header = parsed.first;
  if (header.record_id != record_id || header.version != version) {
    return Status::TamperDetected("version entry header mismatch");
  }
  crypto::Aead aead;
  MEDVAULT_RETURN_IF_ERROR(aead.Init(data_key));
  MEDVAULT_ASSIGN_OR_RETURN(std::string plaintext,
                            aead.Open(parsed.second, header.Encode()));
  RecordVersion out;
  out.header = header;
  out.plaintext = std::move(plaintext);
  return out;
}

Result<RecordVersion> VersionStore::ReadLatest(
    const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(uint32_t latest, LatestVersion(record_id));
  return ReadVersion(record_id, latest);
}

Result<uint32_t> VersionStore::LatestVersion(const RecordId& record_id) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return Status::NotFound("unknown record");
  return static_cast<uint32_t>(refs->size());
}

Result<std::string> VersionStore::EntryHash(const RecordId& record_id,
                                            uint32_t version) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr || version == 0 || version > refs->size()) {
    return Status::NotFound("unknown record version");
  }
  return HashString((*refs)[version - 1].entry_hash);
}

Result<std::vector<VersionHeader>> VersionStore::History(
    const RecordId& record_id) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return Status::NotFound("unknown record");
  std::vector<VersionHeader> history;
  history.reserve(refs->size());
  for (uint32_t v = 1; v <= refs->size(); v++) {
    MEDVAULT_ASSIGN_OR_RETURN(std::string raw, ReadRawEntry(record_id, v));
    MEDVAULT_ASSIGN_OR_RETURN(auto parsed, ParseVersionEntry(raw));
    history.push_back(std::move(parsed.first));
  }
  return history;
}

std::vector<RecordId> VersionStore::RecordIds() const {
  std::vector<RecordId> ids;
  for (uint32_t r : OrdinalsById()) ids.push_back(records()->id(r));
  return ids;
}

uint64_t VersionStore::TotalVersionCount() const {
  uint64_t total = 0;
  for (const Refs& refs : catalog_) total += refs.size();
  return total;
}

Status VersionStore::VerifyRecord(const RecordId& record_id) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return Status::NotFound("unknown record");

  const bool key_alive = keystore_->GetKey(record_id).ok();
  std::string prev_hash;
  for (uint32_t v = 1; v <= refs->size(); v++) {
    auto raw = ReadRawEntry(record_id, v);
    if (!raw.ok()) {
      if (!key_alive && raw.status().IsNotFound()) {
        // Crypto-shredded AND media reclaimed: the catalog tombstone is
        // all that legitimately remains.
        prev_hash = HashString((*refs)[v - 1].entry_hash);
        continue;
      }
      return Status::TamperDetected("version bytes unreadable: " +
                                    raw.status().ToString());
    }
    // Catalog commitment.
    const Digest actual_hash = HashEntry(*raw);
    if (actual_hash != (*refs)[v - 1].entry_hash) {
      return Status::TamperDetected("version entry hash mismatch");
    }
    MEDVAULT_ASSIGN_OR_RETURN(auto parsed, ParseVersionEntry(*raw));
    const VersionHeader& header = parsed.first;
    if (header.record_id != record_id || header.version != v) {
      return Status::TamperDetected("version header identity mismatch");
    }
    if (header.prev_version_hash != prev_hash) {
      return Status::TamperDetected("version hash chain broken");
    }
    prev_hash = HashString(actual_hash);

    if (key_alive) {
      MEDVAULT_ASSIGN_OR_RETURN(std::string data_key,
                                keystore_->GetKey(record_id));
      crypto::Aead aead;
      MEDVAULT_RETURN_IF_ERROR(aead.Init(data_key));
      auto opened = aead.Open(parsed.second, header.Encode());
      if (!opened.ok()) {
        return Status::TamperDetected("version payload fails authentication");
      }
    }
  }
  return Status::OK();
}

Status VersionStore::VerifyAllRecords() const {
  for (uint32_t r : OrdinalsById()) {
    MEDVAULT_RETURN_IF_ERROR(VerifyRecord(records()->id(r)));
  }
  return Status::OK();
}

std::vector<std::string> VersionStore::AllVersionHashes() const {
  std::vector<std::string> hashes;
  hashes.reserve(TotalVersionCount());
  for (uint32_t r : OrdinalsById()) {
    for (const VersionRef& ref : catalog_[r]) {
      hashes.push_back(HashString(ref.entry_hash));
    }
  }
  return hashes;
}

Status VersionStore::ForEachRawVersion(
    const RecordId& record_id,
    const std::function<Status(uint32_t, const Slice&, const std::string&)>&
        fn) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return Status::NotFound("unknown record");
  for (uint32_t v = 1; v <= refs->size(); v++) {
    MEDVAULT_ASSIGN_OR_RETURN(std::string raw, ReadRawEntry(record_id, v));
    MEDVAULT_RETURN_IF_ERROR(fn(v, raw, HashString((*refs)[v - 1].entry_hash)));
  }
  return Status::OK();
}

std::vector<uint64_t> VersionStore::FullyDisposedSegments() const {
  // segment id -> does any entry belong to a record with a live key?
  // Sealed segments with data but no catalog references at all hold only
  // frames orphaned by a crash (appended, never committed): seed them as
  // lifeless so their media can be reclaimed too.
  std::map<uint64_t, bool> has_live_entry;
  for (uint64_t segment_id : segments_->SegmentIds()) {
    if (!segments_->IsSealed(segment_id)) continue;
    uint64_t size = 0;
    if (env_->GetFileSize(segments_->SegmentFileName(segment_id), &size)
            .ok() &&
        size > 0) {
      has_live_entry.try_emplace(segment_id, false);
    }
  }
  for (uint32_t r = 0; r < catalog_.size(); ++r) {
    const bool destroyed =
        keystore_->StatusAt(r) == KeyStore::KeyStatus::kDestroyed;
    for (const VersionRef& ref : catalog_[r]) {
      auto [it, inserted] =
          has_live_entry.try_emplace(ref.handle.segment_id, false);
      if (!destroyed) it->second = true;
    }
  }
  std::vector<uint64_t> reclaimable;
  for (const auto& [segment_id, live] : has_live_entry) {
    if (!live && segments_->IsSealed(segment_id)) {
      reclaimable.push_back(segment_id);
    }
  }
  return reclaimable;
}

Result<int> VersionStore::ReclaimSegments(
    const std::vector<uint64_t>& segment_ids) {
  if (!open_) return Status::FailedPrecondition("version store not open");
  // Refuse anything that still carries a live record.
  std::vector<uint64_t> eligible = FullyDisposedSegments();
  int dropped = 0;
  for (uint64_t segment_id : segment_ids) {
    if (std::find(eligible.begin(), eligible.end(), segment_id) ==
        eligible.end()) {
      return Status::FailedPrecondition(
          "segment holds live records or is active; refusing to reclaim");
    }
    MEDVAULT_RETURN_IF_ERROR(segments_->DropSegment(segment_id));
    dropped++;
  }
  return dropped;
}

bool VersionStore::IsReclaimed(const RecordId& record_id) const {
  const Refs* refs = Find(record_id);
  if (refs == nullptr) return false;
  return segments_->Read(refs->front().handle).status().IsNotFound();
}

Status VersionStore::ImportRawVersion(const RecordId& record_id,
                                      const Slice& raw_entry) {
  if (!open_) return Status::FailedPrecondition("version store not open");
  MEDVAULT_ASSIGN_OR_RETURN(auto parsed, ParseVersionEntry(raw_entry));
  const VersionHeader& header = parsed.first;
  if (header.record_id != record_id) {
    return Status::InvalidArgument("raw entry names a different record");
  }
  Refs& refs = SlotAt(&catalog_, records()->Intern(record_id));
  if (header.version != refs.size() + 1) {
    return Status::InvalidArgument("raw entries must arrive in order");
  }
  std::string expected_prev =
      refs.empty() ? std::string() : HashString(refs.back().entry_hash);
  if (header.prev_version_hash != expected_prev) {
    return Status::TamperDetected("imported version breaks the hash chain");
  }
  MEDVAULT_ASSIGN_OR_RETURN(storage::EntryHandle handle,
                            segments_->Append(raw_entry));
  const Digest entry_hash = HashEntry(raw_entry);
  MEDVAULT_RETURN_IF_ERROR(
      LogCatalogEntry(record_id, header.version, handle, entry_hash));
  refs.push_back(VersionRef{handle, entry_hash});
  return Status::OK();
}

}  // namespace medvault::core
