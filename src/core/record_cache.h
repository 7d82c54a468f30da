#ifndef MEDVAULT_CORE_RECORD_CACHE_H_
#define MEDVAULT_CORE_RECORD_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "core/record.h"

namespace medvault::core {

/// Authenticated LRU cache of decrypted record versions — the shard
/// read path's answer to "performance comparable to conventional
/// storage" (paper §3) without weakening the security story:
///
///   * Authenticated: an entry is stored with the SHA-256 entry hash
///     the version store's catalog vouches for, and Get() only serves
///     it when the caller's expected hash matches. A stale or poisoned
///     entry is dropped (and counted) instead of served, so cached
///     reads carry the same integrity guarantee as decrypting reads.
///   * Secure-deletion safe: disposal, correction, and key-shredding
///     call PurgeRecord() synchronously under the vault's exclusive
///     lock, so a crypto-shredded record is never servable from memory
///     even though its plaintext was cached moments earlier.
///   * Hygienic: evicted and purged plaintext is zeroized before the
///     memory is released (same discipline as the key store) — cache
///     memory is not a plaintext archive.
///
/// Versions are immutable (WORM), so entries never need refreshing:
/// they are only ever evicted (capacity), rejected (hash mismatch), or
/// purged (deletion paths).
///
/// Thread safety: all operations serialize on an internal mutex; one
/// cache may be shared by many vault shards (record ids are globally
/// unique across shards).
class RecordCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Gets with an empty expected hash: the caller could not
    /// authenticate a hit, so the cache stood aside. Counted separately
    /// from rejections — a bypass says nothing about entry integrity.
    uint64_t bypasses = 0;
    uint64_t evictions = 0;   ///< capacity evictions
    uint64_t rejections = 0;  ///< hash-mismatch entries dropped
    uint64_t purges = 0;      ///< entries removed by PurgeRecord
  };

  /// `capacity_bytes` bounds the summed plaintext size of live entries.
  explicit RecordCache(size_t capacity_bytes);
  ~RecordCache();

  RecordCache(const RecordCache&) = delete;
  RecordCache& operator=(const RecordCache&) = delete;

  /// Serves (record, version) iff present AND stored under exactly
  /// `expected_entry_hash`; a mismatching entry is zeroized, dropped,
  /// and counted as a rejection (plus a miss for the caller). An empty
  /// `expected_entry_hash` cannot authenticate anything: it bypasses
  /// the cache (counted as bypass + miss) and leaves any cached entry
  /// untouched.
  std::optional<RecordVersion> Get(const RecordId& record_id,
                                   uint32_t version,
                                   const std::string& expected_entry_hash);

  /// Inserts a decrypted version under its catalog entry hash.
  /// Oversized values (larger than the whole cache) are ignored.
  void Put(const RecordId& record_id, uint32_t version,
           const std::string& entry_hash, const RecordVersion& value);

  /// Synchronously zeroizes and removes every cached version of the
  /// record. Disposal / correction / key-shred paths call this BEFORE
  /// acknowledging, so read-after-secure-delete can never hit.
  void PurgeRecord(const RecordId& record_id);

  Stats stats() const;
  size_t entry_count() const;
  size_t charge_bytes() const;
  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    RecordId record_id;
    uint32_t version = 0;
    std::string entry_hash;
    RecordVersion value;
  };

  using LruList = std::list<Entry>;

  static std::string Key(const RecordId& record_id, uint32_t version);

  /// Zeroizes an entry's plaintext and unlinks it from both indexes.
  /// Requires mu_ held.
  void RemoveLocked(LruList::iterator it);
  void EvictToFitLocked();

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index_;
  std::map<RecordId, std::set<uint32_t>> by_record_;
  size_t charge_ = 0;
  Stats stats_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_RECORD_CACHE_H_
