#include "core/keystore.h"

#include <memory>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "crypto/ctr.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "storage/log_format.h"
#include "storage/log_recover.h"

namespace medvault::core {

namespace {

/// Key-log entry kinds.
constexpr uint8_t kEntryLive = 1;
constexpr uint8_t kEntryDestroyed = 2;

/// First logical record of a v2 (CRC-framed) key log.
constexpr char kKeyLogMagicV2[] = "medvault-keylog-v2";

/// The exact on-disk bytes of the magic record: a kFull physical record
/// at block offset 0. Version detection compares the file's prefix
/// against this, so even a file holding only a torn fragment of the
/// magic record is recognized as v2 (and recovered to an empty log)
/// instead of being misparsed as v1.
std::string CanonicalMagicRecord() {
  const Slice payload(kKeyLogMagicV2);
  std::string rec(storage::log::kHeaderSize, '\0');
  const char type =
      static_cast<char>(storage::log::RecordType::kFull);
  uint32_t crc = crc32c::Value(Slice(&type, 1));
  crc = crc32c::Extend(crc, payload.data(), payload.size());
  EncodeFixed32(rec.data(), crc32c::Mask(crc));
  rec[4] = static_cast<char>(payload.size() & 0xff);
  rec[5] = static_cast<char>((payload.size() >> 8) & 0xff);
  rec[6] = type;
  rec.append(payload.data(), payload.size());
  return rec;
}

/// Deterministic public wrap nonce, unique per record id. Reopening the
/// keystore (which reseeds the DRBG) must never reuse a (key, nonce)
/// pair with *different* plaintext; binding the nonce to the record id
/// guarantees the only reuse is re-wrapping the identical data key,
/// which leaks nothing.
std::string WrapNonce(const std::string& record_id) {
  std::string digest =
      crypto::Sha256Digest("medvault-wrap-nonce:" + record_id);
  return digest.substr(0, crypto::kCtrNonceSize);
}

void Wipe(std::array<char, 32>* key) {
  // Best-effort in-memory shredding; volatile prevents dead-store
  // elimination of the overwrite.
  volatile char* p = key->data();
  for (size_t i = 0; i < key->size(); i++) p[i] = 0;
}

Slice AsSlice(const std::array<char, 32>& key) {
  return Slice(key.data(), key.size());
}

}  // namespace

KeyStore::Key32 KeyStore::KeyRefOf(const Key32& data_key) {
  const std::string tag = crypto::HmacSha256(AsSlice(data_key),
                                             "medvault-key-ref");
  Key32 ref{};
  std::memcpy(ref.data(), tag.data(), ref.size());
  return ref;
}

void KeyStore::ForgetKey(KeySlot* slot) {
  key_refs_.erase(KeyRefOf(slot->data_key));
  Wipe(&slot->data_key);
}

uint32_t KeyStore::KeyOrdinal(const RecordId& record_id) const {
  const uint32_t ordinal = records_->Find(record_id);
  return StatusAt(ordinal) == KeyStatus::kNone ? RecordTable::kNone
                                                : ordinal;
}

void KeyStore::SetLiveKey(uint32_t ordinal, const Key32& data_key) {
  KeySlot& slot = SlotAt(&keys_, ordinal);
  slot.data_key = data_key;
  slot.status = KeyStatus::kLive;
  key_refs_.insert_or_assign(KeyRefOf(data_key), ordinal);
}

KeyStore::KeyStore(storage::Env* env, std::string path,
                   const Slice& master_key, const Slice& drbg_seed,
                   RecordTable* records)
    : env_(env),
      path_(std::move(path)),
      records_(records == nullptr ? &own_records_ : records) {
  // Errors surface on Open(); Init failure leaves master_aead_ unusable.
  InitAead(master_key);
  drbg_ = std::make_unique<crypto::HmacDrbg>(drbg_seed);
}

Status KeyStore::InitAead(const Slice& master_key) {
  return master_aead_.Init(master_key);
}

Status KeyStore::ApplyParsedEntry(uint8_t kind, const Slice& record_id,
                                  const Slice& blob) {
  if (kind != kEntryLive && kind != kEntryDestroyed) {
    return Status::Corruption("unknown key log entry kind");
  }
  std::string key;
  if (kind == kEntryLive) {
    MEDVAULT_ASSIGN_OR_RETURN(key, master_aead_.Open(blob, record_id));
    if (key.size() != sizeof(Key32)) {
      return Status::Corruption("wrapped data key is not 32 bytes");
    }
  }
  // Later entries win: a replayed live key gives way to its tombstone.
  const uint32_t ordinal = records_->Intern(record_id.ToStringView());
  KeySlot& slot = SlotAt(&keys_, ordinal);
  if (slot.status == KeyStatus::kLive) ForgetKey(&slot);
  if (kind == kEntryDestroyed) {
    slot.status = KeyStatus::kDestroyed;
  } else {
    Key32 data_key;
    std::memcpy(data_key.data(), key.data(), data_key.size());
    SetLiveKey(ordinal, data_key);
    Wipe(&data_key);
  }
  return Status::OK();
}

Status KeyStore::ApplyLogRecord(const Slice& record) {
  Slice in = record;
  if (in.empty()) return Status::Corruption("empty key log record");
  uint8_t kind = static_cast<uint8_t>(in[0]);
  in.RemovePrefix(1);
  Slice record_id, blob;
  if (!GetLengthPrefixed(&in, &record_id)) {
    return Status::Corruption("malformed key log record");
  }
  if (kind == kEntryLive && !GetLengthPrefixed(&in, &blob)) {
    return Status::Corruption("malformed key log blob");
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes in key log record");
  }
  return ApplyParsedEntry(kind, record_id, blob);
}

Status KeyStore::ParseV1(const std::string& contents) {
  Slice in = contents;
  while (!in.empty()) {
    uint8_t kind = static_cast<uint8_t>(in[0]);
    if (kind != kEntryLive && kind != kEntryDestroyed) {
      // v1 entries start with a valid kind byte even when torn (the
      // tail is a prefix of an honest append), so garbage here is
      // corruption, not a crash artifact.
      return Status::Corruption("unknown key log entry kind");
    }
    in.RemovePrefix(1);
    Slice record_id, blob;
    if (!GetLengthPrefixed(&in, &record_id)) break;  // torn tail
    if (kind == kEntryLive && !GetLengthPrefixed(&in, &blob)) {
      break;  // torn tail
    }
    MEDVAULT_RETURN_IF_ERROR(ApplyParsedEntry(kind, record_id, blob));
  }
  return Status::OK();
}

Status KeyStore::Open() {
  bool needs_upgrade = false;
  if (env_->FileExists(path_)) {
    // The first record's bytes tell the format; only a v1 log (upgraded
    // below) is read whole here, a v2 log is read once, by its replay.
    const std::string magic = CanonicalMagicRecord();
    std::string prefix;  // short only when the file is
    {
      std::unique_ptr<storage::SequentialFile> file;
      MEDVAULT_RETURN_IF_ERROR(env_->NewSequentialFile(path_, &file));
      MEDVAULT_RETURN_IF_ERROR(file->Read(magic.size(), &prefix));
    }
    if (magic.compare(0, prefix.size(), prefix) == 0) {
      storage::log::LogOpenResult res;
      bool saw_magic = false;
      MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
          env_, path_,
          [this, &saw_magic](const Slice& record, uint64_t) -> Status {
            if (!saw_magic) {
              saw_magic = true;
              if (record.ToString() != kKeyLogMagicV2) {
                return Status::Corruption("bad key log magic");
              }
              return Status::OK();
            }
            return ApplyLogRecord(record);
          },
          &res));
      writer_ = std::move(res.writer);
      if (!saw_magic) {
        // Only a torn fragment of the magic record survived the crash
        // (now cut off); rewrite it.
        MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(kKeyLogMagicV2));
        MEDVAULT_RETURN_IF_ERROR(writer_->Sync());
      }
    } else {
      std::string contents;
      MEDVAULT_RETURN_IF_ERROR(
          storage::ReadFileToString(env_, path_, &contents));
      MEDVAULT_RETURN_IF_ERROR(ParseV1(contents));
      needs_upgrade = true;
    }
  } else {
    std::unique_ptr<storage::WritableFile> dest;
    MEDVAULT_RETURN_IF_ERROR(env_->NewWritableFile(path_, &dest));
    writer_ = std::make_unique<storage::log::Writer>(std::move(dest));
    MEDVAULT_RETURN_IF_ERROR(writer_->AddRecord(kKeyLogMagicV2));
    MEDVAULT_RETURN_IF_ERROR(writer_->Sync());
  }
  open_ = true;
  // v1 -> v2 upgrade: Persist rewrites the whole log framed.
  if (needs_upgrade) MEDVAULT_RETURN_IF_ERROR(Persist());
  return Status::OK();
}

Status KeyStore::AppendLiveEntry(const RecordId& record_id,
                                 const Key32& data_key) {
  if (!writer_) return Status::IoError("key log writer unavailable");
  std::string entry;
  entry.push_back(static_cast<char>(kEntryLive));
  PutLengthPrefixed(&entry, record_id);
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string blob,
      master_aead_.Seal(WrapNonce(record_id), AsSlice(data_key), record_id));
  PutLengthPrefixed(&entry, blob);
  // No eager sync: live-key appends ride the vault's group-committed
  // sync wave (the key log is synced before the catalog/state commit
  // point — see Vault::SyncAllLocked), so batched ingest pays one key-
  // log fsync per window instead of one per record. Destroy entries
  // still sync eagerly (crypto-shredding must not be deferrable).
  return writer_->AddRecord(entry);
}

Status KeyStore::CreateKey(const RecordId& record_id) {
  if (!open_) return Status::FailedPrecondition("keystore not open");
  if (KeyOrdinal(record_id) != RecordTable::kNone) {
    return Status::AlreadyExists("key already exists for record");
  }
  Key32 data_key;
  // Mixing the record id in keeps keys unique even if the DRBG stream
  // repeats across reopens (the seed is deterministic by design).
  const std::string key = crypto::HmacSha256(
      drbg_->Generate(crypto::kAes256KeySize), "medvault-key:" + record_id);
  std::memcpy(data_key.data(), key.data(), data_key.size());
  Status append_status = AppendLiveEntry(record_id, data_key);
  if (append_status.ok()) {
    SetLiveKey(records_->Intern(record_id), data_key);
  } else {
    // The entry (or part of it) may still have reached the file even
    // though the caller is told the create failed. Rewrite the log
    // without it — no slot was updated — so the id is not burned:
    // after a reopen, retrying this record id must see NotFound, not
    // AlreadyExists. Best effort; if the rewrite also fails (e.g. the
    // whole device is gone), vault crash recovery removes the orphan.
    (void)Persist();
  }
  Wipe(&data_key);
  return append_status;
}

Status KeyStore::ImportKey(const RecordId& record_id, const Slice& key,
                           bool destroyed) {
  if (!open_) return Status::FailedPrecondition("keystore not open");
  if (KeyOrdinal(record_id) != RecordTable::kNone) {
    return Status::AlreadyExists("key already exists for record");
  }
  if (destroyed) {
    if (!writer_) return Status::IoError("key log writer unavailable");
    std::string entry;
    entry.push_back(static_cast<char>(kEntryDestroyed));
    PutLengthPrefixed(&entry, record_id);
    Status s = writer_->AddRecord(entry);
    if (s.ok()) s = writer_->Sync();
    if (!s.ok()) {
      (void)Persist();  // roll back the half-written entry, as above
      return s;
    }
    const uint32_t r = records_->Intern(record_id);
    SlotAt(&keys_, r).status = KeyStatus::kDestroyed;
    return Status::OK();
  }
  if (key.size() != crypto::kAes256KeySize) {
    return Status::InvalidArgument("imported key must be 32 bytes");
  }
  Key32 data_key;
  std::memcpy(data_key.data(), key.data(), data_key.size());
  Status s = AppendLiveEntry(record_id, data_key);
  if (s.ok()) {
    SetLiveKey(records_->Intern(record_id), data_key);
  } else {
    (void)Persist();
  }
  Wipe(&data_key);
  return s;
}

Result<std::string> KeyStore::GetKey(const RecordId& record_id) const {
  const uint32_t r = KeyOrdinal(record_id);
  if (r == RecordTable::kNone) return Status::NotFound("no key for record");
  if (keys_[r].status == KeyStatus::kDestroyed) {
    return Status::KeyDestroyed("record was crypto-shredded");
  }
  return AsSlice(keys_[r].data_key).ToString();
}

Result<std::string> KeyStore::GetIndexKey(const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(std::string data_key, GetKey(record_id));
  return crypto::HkdfSha256(data_key, Slice(), "medvault-index-key", 32);
}

Result<std::string> KeyStore::GetKeyRef(const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(std::string data_key, GetKey(record_id));
  return crypto::HmacSha256(data_key, "medvault-key-ref");
}

Result<RecordId> KeyStore::ResolveKeyRef(const Slice& key_ref) const {
  Key32 ref{};
  if (key_ref.size() != ref.size()) {
    return Status::NotFound("key ref unknown or destroyed");
  }
  std::memcpy(ref.data(), key_ref.data(), ref.size());
  auto it = key_refs_.find(ref);
  if (it == key_refs_.end()) {
    return Status::NotFound("key ref unknown or destroyed");
  }
  return records_->id(it->second);
}

Status KeyStore::DestroyKey(const RecordId& record_id) {
  const uint32_t r = KeyOrdinal(record_id);
  if (r == RecordTable::kNone) return Status::NotFound("no key for record");
  if (keys_[r].status == KeyStatus::kDestroyed) {
    return Status::KeyDestroyed("key already destroyed");
  }
  ForgetKey(&keys_[r]);
  keys_[r].status = KeyStatus::kDestroyed;
  // Rewrite the key log immediately: the wrapped blob must not survive
  // on disk (media re-use requirement, HIPAA §164.310(d)(2)(ii)).
  return Persist();
}

bool KeyStore::IsDestroyed(const RecordId& record_id) const {
  return StatusAt(records_->Find(record_id)) == KeyStatus::kDestroyed;
}

size_t KeyStore::LiveKeyCount() const {
  return key_refs_.size();
}

Status KeyStore::RemoveKeysForRecovery(
    const std::vector<RecordId>& record_ids) {
  if (!open_) return Status::FailedPrecondition("keystore not open");
  bool changed = false;
  for (const RecordId& record_id : record_ids) {
    const uint32_t r = KeyOrdinal(record_id);
    if (r == RecordTable::kNone) continue;
    if (keys_[r].status == KeyStatus::kLive) ForgetKey(&keys_[r]);
    keys_[r].status = KeyStatus::kNone;
    changed = true;
  }
  if (!changed) return Status::OK();
  return Persist();
}

Status KeyStore::RotateMasterKey(const Slice& new_master_key) {
  MEDVAULT_RETURN_IF_ERROR(master_aead_.Init(new_master_key));
  return Persist();
}

Status KeyStore::Persist() {
  if (!open_) return Status::FailedPrecondition("keystore not open");
  return storage::log::RewriteLog(
      env_, path_,
      [this](storage::log::Writer* tmp) -> Status {
        MEDVAULT_RETURN_IF_ERROR(tmp->AddRecord(kKeyLogMagicV2));
        // In id order, as the log has always been written.
        for (uint32_t r : records_->ById(keys_.size(), [this](uint32_t r) {
               return keys_[r].status != KeyStatus::kNone;
             })) {
          const RecordId& record_id = records_->id(r);
          const KeySlot& slot = keys_[r];
          std::string entry;
          if (slot.status == KeyStatus::kDestroyed) {
            entry.push_back(static_cast<char>(kEntryDestroyed));
            PutLengthPrefixed(&entry, record_id);
          } else {
            entry.push_back(static_cast<char>(kEntryLive));
            PutLengthPrefixed(&entry, record_id);
            MEDVAULT_ASSIGN_OR_RETURN(
                std::string blob,
                master_aead_.Seal(WrapNonce(record_id),
                                  AsSlice(slot.data_key), record_id));
            PutLengthPrefixed(&entry, blob);
          }
          MEDVAULT_RETURN_IF_ERROR(tmp->AddRecord(entry));
        }
        return Status::OK();
      },
      &writer_, &rewrite_generation_);
}

}  // namespace medvault::core
