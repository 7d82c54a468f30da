#ifndef MEDVAULT_CORE_VERSION_STORE_H_
#define MEDVAULT_CORE_VERSION_STORE_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/keystore.h"
#include "core/record.h"
#include "storage/env.h"
#include "storage/log_writer.h"
#include "storage/segment.h"

namespace medvault::core {

/// Versioned WORM record storage — the heart of the hybrid model the
/// paper calls for. It reconciles two requirements §4 says existing
/// systems cannot combine:
///
///   * WORM integrity: every version is an immutable entry on sealed
///     append-only segments; nothing is ever updated in place.
///   * Mutability: a correction appends a *new* version whose header
///     carries the SHA-256 of its predecessor's entry, forming a
///     per-record hash chain. History is preserved and verifiable;
///     the record is still correctable (HIPAA right-to-amend).
///
/// Entry layout on the segment store:
///   varint-len(header) || header || AEAD(plaintext, aad=header)
/// The header is cleartext (routing/history need it); the clinical
/// payload is sealed under the record's data key, so crypto-shredding
/// the key makes every version unreadable while the hash chain stays
/// verifiable from the catalog.
class VersionStore {
 public:
  VersionStore(storage::Env* env, const std::string& dir,
               KeyStore* keystore);

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Opens segments and replays the catalog. After an unclean shutdown
  /// both the active segment's torn frame and a torn catalog tail are
  /// cut off (see SegmentStore::Open / log::OpenLogForAppend).
  Status Open();

  /// Durability barrier: syncs the active segment, then the catalog —
  /// in that order, so a durable catalog entry implies its bytes.
  Status Sync();

  /// Split sync for the vault's commit wave: the active segment file
  /// (null when none is open or the store is closed) syncs alongside the
  /// other side logs, and SyncCatalog() must only run *after* it — same
  /// segment-before-catalog invariant as Sync().
  storage::WritableFile* SegmentSyncTarget();
  Status SyncCatalog();

  /// What the commit point (state log) vouches for about one record, as
  /// crash recovery hands it to ReconcileCatalog.
  struct CommittedRecord {
    bool committed = false;  ///< the record has a committed meta
    uint32_t latest = 0;  ///< latest version the state log vouches for
    bool shredded = false;  ///< key destroyed: media may be reclaimed
    uint32_t kept = 0;      ///< out: versions the catalog still holds
  };

  /// Crash-recovery reconciliation: one pass over the catalog with
  /// `committed`, indexed by the ordinals of the key store's record
  /// table (shorter than the table means not committed). Drops catalog
  /// references that
  /// (a) belong to no committed record, (b) exceed the committed latest
  /// version, or (c) point at segment frames lost with the crash — then
  /// durably rewrites the catalog if anything was dropped. The orphaned
  /// segment frames themselves stay behind (WORM media) until segment
  /// reclamation collects them. Sets each record's `kept` and returns
  /// the number of dropped references in `*dropped_refs`.
  Status ReconcileCatalog(std::vector<CommittedRecord>* committed,
                          uint64_t* dropped_refs);

  /// Appends a new version of `record_id` (version 1 creates the chain).
  /// The record's key must already exist in the KeyStore.
  Result<VersionHeader> AppendVersion(const RecordId& record_id,
                                      const PrincipalId& author,
                                      const std::string& content_type,
                                      const std::string& reason,
                                      const Slice& plaintext, Timestamp now);

  /// Decrypts a version (kKeyDestroyed after shredding, kTamperDetected
  /// if bytes or header were altered).
  Result<RecordVersion> ReadVersion(const RecordId& record_id,
                                    uint32_t version) const;
  Result<RecordVersion> ReadLatest(const RecordId& record_id) const;

  /// Version headers, oldest first, without decrypting payloads.
  Result<std::vector<VersionHeader>> History(const RecordId& record_id) const;

  Result<uint32_t> LatestVersion(const RecordId& record_id) const;

  /// The catalog's SHA-256 entry hash for one version — the integrity
  /// anchor the authenticated record cache validates against.
  Result<std::string> EntryHash(const RecordId& record_id,
                                uint32_t version) const;
  std::vector<RecordId> RecordIds() const;
  uint64_t TotalVersionCount() const;

  /// Verifies one record end-to-end: catalog hashes match stored bytes,
  /// the header hash-chain links, and (if the key is alive) every
  /// version's AEAD tag authenticates.
  Status VerifyRecord(const RecordId& record_id) const;
  Status VerifyAllRecords() const;

  /// SHA-256 entry hash of each version in (record, version) order —
  /// input to the vault content root used by verifiable migration.
  std::vector<std::string> AllVersionHashes() const;

  /// Raw (still-encrypted) version entries for exact-copy migration.
  Status ForEachRawVersion(
      const RecordId& record_id,
      const std::function<Status(uint32_t version, const Slice& raw_entry,
                                 const std::string& entry_hash)>& fn) const;

  /// Installs a raw version entry copied from another vault. Validates
  /// the header chain and that the entry parses; byte-identical entries
  /// keep their hashes, which is what makes migration provable.
  Status ImportRawVersion(const RecordId& record_id, const Slice& raw_entry);

  /// Sealed segments in which *every* entry belongs to a crypto-shredded
  /// record — eligible for physical reclamation (media re-use, HIPAA
  /// §164.310(d)(2)(ii)). The ciphertext is unreadable either way; this
  /// frees the media.
  std::vector<uint64_t> FullyDisposedSegments() const;

  /// Physically drops the given (fully disposed, sealed) segments.
  /// Returns how many were dropped. Catalog entries remain as
  /// tombstones: hashes stay part of the content root, and VerifyRecord
  /// treats key-destroyed records with reclaimed media as valid.
  Result<int> ReclaimSegments(const std::vector<uint64_t>& segment_ids);

  /// True if the record's media was reclaimed (raw bytes gone).
  bool IsReclaimed(const RecordId& record_id) const;

  storage::SegmentStore* segments() { return segments_.get(); }

  /// Bumped every time the catalog is rewritten in place (crash-recovery
  /// reconciliation). Replication uses this to detect that its running
  /// prefix hash of catalog.log is stale and the file must be re-shipped
  /// whole rather than appended to.
  uint64_t catalog_rewrite_generation() const {
    return catalog_rewrite_generation_;
  }

 private:
  /// SHA-256 of a version entry, held inline.
  using Digest = std::array<char, 32>;
  struct VersionRef {
    storage::EntryHandle handle;
    Digest entry_hash;
  };
  using Refs = std::vector<VersionRef>;

  RecordTable* records() const { return keystore_->records(); }
  /// The versions of `record_id`, or null if the catalog holds none.
  const Refs* Find(const RecordId& record_id) const;
  /// The ordinals of every record with versions, in id order.
  std::vector<uint32_t> OrdinalsById() const;

  static Digest HashEntry(const Slice& entry);
  static std::string HashString(const Digest& hash) {
    return std::string(hash.data(), hash.size());
  }

  Result<std::string> ReadRawEntry(const RecordId& record_id,
                                   uint32_t version) const;
  static std::string EncodeCatalogEntry(const RecordId& record_id,
                                        uint32_t version,
                                        const storage::EntryHandle& handle,
                                        const Digest& entry_hash);
  Status LogCatalogEntry(const RecordId& record_id, uint32_t version,
                         const storage::EntryHandle& handle,
                         const Digest& entry_hash);
  /// Durably rewrites catalog.log from the in-memory catalog
  /// (write-new-then-rename) and re-points the writer.
  Status RewriteCatalog();

  storage::Env* env_;
  std::string dir_;
  KeyStore* keystore_;
  std::unique_ptr<storage::SegmentStore> segments_;
  std::unique_ptr<storage::log::Writer> catalog_writer_;
  std::deque<Refs> catalog_;  ///< by record ordinal; empty: no versions
  uint64_t catalog_rewrite_generation_ = 0;
  bool open_ = false;
};

/// Parses a raw version entry into (header, sealed payload).
Result<std::pair<VersionHeader, Slice>> ParseVersionEntry(const Slice& entry);

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_VERSION_STORE_H_
