#ifndef MEDVAULT_CORE_KEYSTORE_H_
#define MEDVAULT_CORE_KEYSTORE_H_

#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "core/record.h"
#include "core/record_table.h"
#include "crypto/aead.h"
#include "crypto/drbg.h"
#include "storage/env.h"
#include "storage/log_writer.h"

namespace medvault::core {

/// Key hierarchy and crypto-shredding (paper §2.1 Disposal / §3 secure
/// deletion, media re-use).
///
///   master key  ──wraps──►  per-record data key (32B, random)
///                           per-record index key (derived via HKDF)
///
/// Every record's ciphertext lives forever on WORM segments; what makes
/// "secure deletion" possible on un-erasable media is destroying the
/// record's wrapped key: after DestroyKey() the plaintext is
/// information-theoretically gone from the store (only the master-key
/// holder could ever have unwrapped it, and the wrapped blob is erased
/// and overwritten in the key log rewrite).
///
/// The key log is an append-only file of wrap/destroy events, re-written
/// compacted on Persist(); destroyed keys never reappear. Format v2
/// frames every entry as a CRC-checked log record (log::Writer
/// discipline) behind a magic first record, so a torn final entry after
/// a power cut is recognized and cut off instead of poisoning the parse.
/// Unframed v1 files are still read (tolerating a torn tail) and are
/// upgraded in place on Open.
class KeyStore {
 public:
  /// `master_key` is 32 bytes; `path` is the key-log file. Keys are
  /// held per ordinal of `records` (the vault's table, shared with the
  /// version store); null gives the store a table of its own.
  KeyStore(storage::Env* env, std::string path, const Slice& master_key,
           const Slice& drbg_seed, RecordTable* records = nullptr);

  KeyStore(const KeyStore&) = delete;
  KeyStore& operator=(const KeyStore&) = delete;

  /// Loads existing key log if present.
  Status Open();

  /// Generates and wraps a fresh 32-byte data key for `record_id`.
  /// AlreadyExists if the record has a live or destroyed key.
  /// On a write/sync failure the partially-written entry is rolled back
  /// (log rewritten without it), so the id is not burned: a retry after
  /// reopen sees no key rather than AlreadyExists.
  Status CreateKey(const RecordId& record_id);

  /// Installs an existing key (migration: the source vault hands over
  /// custody of the record key; the target re-wraps it under its own
  /// master key). Pass an empty key with `destroyed=true` to carry over
  /// a shredded record's tombstone.
  Status ImportKey(const RecordId& record_id, const Slice& key,
                   bool destroyed);

  /// Returns the record's data key, or kKeyDestroyed / kNotFound.
  Result<std::string> GetKey(const RecordId& record_id) const;

  /// Index key for the record (HKDF from the data key, so it dies with
  /// it).
  Result<std::string> GetIndexKey(const RecordId& record_id) const;

  /// An opaque public reference for the record's key, safe to embed in
  /// index postings. Unlinkable to the record id without the key.
  Result<std::string> GetKeyRef(const RecordId& record_id) const;

  /// Looks up which record a key-ref belongs to — only possible while
  /// the key is alive (the mapping is erased on destruction).
  Result<RecordId> ResolveKeyRef(const Slice& key_ref) const;

  /// Crypto-shreds the record: erases and overwrites key material in
  /// memory and rewrites the key log without the wrapped blob.
  /// Idempotent-hostile by design: destroying twice returns kKeyDestroyed.
  Status DestroyKey(const RecordId& record_id);

  bool IsDestroyed(const RecordId& record_id) const;
  size_t LiveKeyCount() const;

  /// The key log's sync target for the vault's commit wave (null
  /// until Open). Live-key appends are NOT synced eagerly — they become
  /// durable at the next wave, before the catalog/state commit point —
  /// so a batch of creates costs one key-log fsync, not one per record.
  /// Destroy entries are excluded from this deferral: DestroyKey
  /// rewrites and syncs immediately (crypto-shredding).
  storage::WritableFile* sync_target() {
    return writer_ ? writer_->file() : nullptr;
  }

  /// The table whose ordinals index this store's keys.
  RecordTable* records() const { return records_; }

  enum class KeyStatus : uint8_t { kNone, kLive, kDestroyed };
  /// The key of the record with ordinal `ordinal` in records().
  KeyStatus StatusAt(uint32_t ordinal) const {
    return ordinal < keys_.size() ? keys_[ordinal].status : KeyStatus::kNone;
  }

  /// Removes entries (live keys wiped, tombstones dropped) for ids that
  /// crash recovery found to have no committed record — keys written
  /// durably by CreateRecord before the commit point that never got
  /// one. Rewrites the log once. NOT for disposal: that is DestroyKey,
  /// which keeps the tombstone.
  Status RemoveKeysForRecovery(const std::vector<RecordId>& record_ids);

  /// Re-wraps every live key under a new master key and rewrites the key
  /// log (master key rotation, needed across a 30-year horizon).
  Status RotateMasterKey(const Slice& new_master_key);

  /// Writes the compacted key log.
  Status Persist();

  /// Bumped every time Persist() rewrites the key log in place (destroy,
  /// rotation, recovery compaction). Replication uses this to detect
  /// that its running prefix hash of keys.db is stale and the file must
  /// be re-shipped whole rather than appended to.
  uint64_t rewrite_generation() const { return rewrite_generation_; }

 private:
  /// Data keys and key-refs are 32 bytes each, held inline.
  using Key32 = std::array<char, 32>;
  struct KeySlot {
    Key32 data_key{};  // zeroes unless live
    KeyStatus status = KeyStatus::kNone;
  };
  /// Key-refs are HMAC outputs, so their leading bytes are already a
  /// uniform hash.
  struct Key32Hash {
    size_t operator()(const Key32& k) const {
      size_t h = 0;
      std::memcpy(&h, k.data(), sizeof(h));
      return h;
    }
  };

  /// The key-ref of `data_key` (see GetKeyRef).
  static Key32 KeyRefOf(const Key32& data_key);
  /// Drops a live key's key-ref and wipes the key in place.
  void ForgetKey(KeySlot* slot);
  /// The ordinal of `record_id` if it has a live or destroyed key, else
  /// RecordTable::kNone.
  uint32_t KeyOrdinal(const RecordId& record_id) const;
  /// Records `data_key` as the live key of `ordinal`.
  void SetLiveKey(uint32_t ordinal, const Key32& data_key);

  Status InitAead(const Slice& master_key);

  /// Applies a parsed entry to the in-memory slots (replay path): an
  /// AEAD unwrap and the key-ref of a live key, and one intern of the id.
  Status ApplyParsedEntry(uint8_t kind, const Slice& record_id,
                          const Slice& blob);
  /// Parses and applies one framed v2 log record.
  Status ApplyLogRecord(const Slice& record);
  /// Parses an unframed v1 key log, tolerating a torn final entry.
  Status ParseV1(const std::string& contents);

  /// Appends one wrapped-key entry to the key log (create/import path).
  Status AppendLiveEntry(const RecordId& record_id, const Key32& data_key);

  storage::Env* env_;
  std::string path_;
  crypto::Aead master_aead_;
  std::unique_ptr<crypto::HmacDrbg> drbg_;
  std::unique_ptr<storage::log::Writer> writer_;
  RecordTable own_records_;  ///< used when no table was given
  RecordTable* records_;
  std::deque<KeySlot> keys_;  ///< by record ordinal
  std::unordered_map<Key32, uint32_t, Key32Hash> key_refs_;  // ref -> ordinal
  uint64_t rewrite_generation_ = 0;
  bool open_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_KEYSTORE_H_
