#ifndef MEDVAULT_CORE_REPLICATION_H_
#define MEDVAULT_CORE_REPLICATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/worker_pool.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "storage/env.h"

namespace medvault::core {

/// Verified log shipping to warm standbys (the paper's availability
/// requirement at production scale).
///
/// Model: the primary's on-disk artifacts are append-only streams
/// (record segments, catalog, index, audit, provenance, state log, key
/// log), so replication is byte shipping, not operation shipping. A
/// `ReplicationSource` cuts a `ShippedBatch` at a group-commit window
/// boundary — under the vault's exclusive lock, immediately after a
/// full sync wave — so every shipped byte is durable and the cut is a
/// crash-consistent prefix of the primary. A `ReplicaApplier` appends
/// the chunks to a standby directory, refusing any batch whose
/// recomputed Merkle root over the chunk bytes disagrees with the root
/// the primary authenticated into the batch header (the same
/// root-equality discipline Migration receipts use).
///
/// Trust boundary: a shipped batch is UNTRUSTED INPUT until the header
/// authenticates (HMAC under a key both sides derive from the shared
/// vault entropy) and the chunk Merkle root matches. Tamper or a torn
/// transfer quarantines the replica exactly like a bad shard: sticky,
/// and promotion is refused until an operator intervenes.
///
/// The cursor protocol is pull-shaped and stateless on the wire: the
/// replica describes what it holds (per-file size + prefix hash), the
/// source answers with verified deltas. A replica's own files ARE its
/// cursor, so replica restarts need no handshake and re-applies are
/// idempotent.

/// What a replica holds, per artifact file: size and SHA-256 of the
/// whole prefix. Authenticated so the primary's cut endpoint only
/// answers holders of the shared replication secret.
struct ReplicationCursor {
  struct FileState {
    uint64_t size = 0;
    std::string prefix_hash;  ///< SHA-256 of the first `size` bytes
  };
  /// Relative path ("audit.log", "segments/seg-00000001") -> state.
  std::map<std::string, FileState> files;
  std::string auth;  ///< HMAC-SHA256 over SignedPayload()

  std::string SignedPayload() const;
  std::string Encode() const;
  static Result<ReplicationCursor> Decode(const Slice& data);

  uint64_t TotalBytes() const;
};

/// One file mutation inside a shipped batch.
struct FileChunk {
  enum Kind : uint8_t {
    kAppend = 1,   ///< append `data` at `offset` (== replica's file size)
    kReplace = 2,  ///< replace the whole file with `data` (rare: the
                   ///< primary rewrote the file, e.g. key-log compaction
                   ///< after a crypto-shred, or the replica's prefix
                   ///< could not be verified)
    kRemove = 3,   ///< delete the file (segment reclamation)
  };
  uint8_t kind = kAppend;
  std::string path;  ///< relative to the vault directory
  uint64_t offset = 0;
  std::string data;

  /// Canonical encoding; also the Merkle leaf preimage.
  std::string Encode() const;
  static Result<FileChunk> Decode(const Slice& data);
};

/// One verified unit of shipping: every chunk the replica needs to
/// advance from its cursor to the primary's current durable state.
struct ShippedBatch {
  uint64_t seq = 0;            ///< monotonic per source instance
  std::string source_system;   ///< primary's system_id
  Timestamp created_at = 0;
  uint64_t source_bytes = 0;   ///< primary's total artifact bytes at cut
  uint64_t lag_at_cut = 0;     ///< source_bytes minus cursor bytes
  uint64_t audit_size = 0;     ///< primary audit tree size at cut
  std::string audit_root;      ///< primary audit Merkle root at cut
  std::string chunks_root;     ///< Merkle root over the chunk leaf hashes
  /// Per-chunk Merkle leaf hashes, covered by chunks_root; lets the
  /// applier pinpoint WHICH chunk was tampered with, not just that one
  /// was.
  std::vector<std::string> leaf_hashes;
  std::vector<FileChunk> chunks;
  /// HMAC-SHA256 over SignedHeader() — authenticates the roots; the
  /// chunk bytes themselves are bound by chunks_root.
  std::string auth;

  std::string SignedHeader() const;
  std::string Encode() const;
  static Result<ShippedBatch> Decode(const Slice& data);

  uint64_t PayloadBytes() const;
};

/// Both ends derive the batch-authentication key from the vault entropy
/// they must already share (a standby that cannot decrypt records could
/// never be promoted). HKDF keeps it purpose-separated from every other
/// derived secret.
std::string DeriveReplicationAuthKey(const Slice& entropy);

/// Computes the cursor for a (possibly partial, possibly absent) vault
/// directory by scanning and hashing its artifacts. Used by appliers at
/// startup; fresh directories yield an empty cursor.
Result<ReplicationCursor> CursorForVaultDir(storage::Env* env,
                                            const std::string& dir,
                                            const Slice& auth_key);

/// Primary-side batch cutter for one vault. Thread-safe; cuts are
/// serialized internally and each runs under the vault's exclusive
/// lock after a full sync wave (Vault::WithQuiescedStore), so a batch
/// is always a durable crash-consistent prefix.
///
/// Incremental cost: the source keeps a running SHA-256 per append-only
/// artifact plus the sizes of previous cut boundaries, so steady-state
/// cuts read only the delta. Files the primary rewrote (key-log
/// compaction, catalog rewrite — detected via rewrite generations) and
/// cursors that do not match a known boundary fall back to verified
/// full-file replacement.
class ReplicationSource {
 public:
  explicit ReplicationSource(Vault* vault);

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Cuts the delta batch that advances `cursor` to the primary's
  /// current durable state. Does NOT verify cursor.auth (in-process
  /// callers are already inside the trust boundary) — the HTTP entry
  /// point HandleCutRequest does.
  Result<ShippedBatch> CutBatch(const ReplicationCursor& cursor);

  /// Wire entry point: decodes `encoded_cursor`, verifies its HMAC
  /// (kPermissionDenied otherwise — the caller never learns vault
  /// bytes without the shared secret), cuts, returns the encoded batch.
  Result<std::string> HandleCutRequest(const Slice& encoded_cursor);

  uint64_t batches_shipped() const;
  uint64_t bytes_shipped() const;
  /// Replica backlog observed at the most recent cut, in bytes.
  uint64_t last_lag_bytes() const;

 private:
  struct TrackedFile {
    uint64_t hashed = 0;         ///< bytes absorbed into `ctx`
    crypto::Sha256 ctx;          ///< running hash of the prefix
    /// Cut-boundary prefix hashes: size -> SHA-256. A cursor matching
    /// one of these gets an append delta; anything else gets kReplace.
    std::map<uint64_t, std::string> boundaries;
  };

  Status ExtendTracked(const std::string& rel, uint64_t target_size,
                       TrackedFile* t);
  Result<std::string> ReadRange(const std::string& rel, uint64_t offset,
                                uint64_t length) const;
  Status CutLocked(const ReplicationCursor& cursor, ShippedBatch* out);

  Vault* vault_;
  std::string auth_key_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* ship_batches_;
  obs::Counter* ship_bytes_;
  obs::Gauge* ship_lag_;

  mutable std::mutex mu_;
  uint64_t next_seq_ = 1;
  uint64_t last_keystore_generation_ = 0;
  uint64_t last_catalog_generation_ = 0;
  std::map<std::string, TrackedFile> tracked_;
};

/// Standby-side applier for one vault directory. Appends verified
/// batches; refuses tampered or torn ones with tamper evidence and a
/// sticky quarantine. An instance is process-scoped: after a replica
/// crash, construct a fresh one — its state (the applied-offset cursor)
/// rebuilds from the directory itself.
///
/// The applied-offset cursor only advances after a batch has fully
/// applied AND synced; a failed mid-batch append leaves it untouched
/// and the next Apply resumes idempotently from the on-disk truth.
class ReplicaApplier {
 public:
  struct Options {
    storage::Env* env = nullptr;    ///< required
    std::string dir;                ///< required; standby vault directory
    std::string entropy;            ///< required; the primary's entropy
    obs::MetricsRegistry* metrics = nullptr;  ///< null = process default
  };

  static Result<std::unique_ptr<ReplicaApplier>> Open(const Options& options);

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// The authenticated cursor describing what this replica holds.
  Result<ReplicationCursor> Cursor() const;

  /// Verifies and applies one batch. Error taxonomy:
  ///   kTamperDetected      bad HMAC / Merkle root / chunk hash, torn
  ///                        batch encoding, or replica bytes ahead of
  ///                        the shipped stream -> replica QUARANTINES
  ///   kFailedPrecondition  stale seq or a cursor gap (re-cut from a
  ///                        fresh Cursor()), or already quarantined
  ///   other                I/O failure; cursor NOT advanced, the next
  ///                        Apply resumes from on-disk state
  Status Apply(const ShippedBatch& batch);
  Status ApplyEncoded(const Slice& encoded);

  bool quarantined() const;
  std::string quarantine_reason() const;
  /// Sidelines the replica (sticky until ClearQuarantine). Also used by
  /// the sharded promotion gate to park a divergent shard replica.
  void Quarantine(const std::string& reason);
  /// Operator override after manual repair (mirrors shard rejoin).
  void ClearQuarantine();

  uint64_t applied_batches() const;
  uint64_t applied_bytes() const;
  /// Backlog vs the most recently applied batch's source state; 0 when
  /// caught up to that cut.
  uint64_t lag_bytes() const;
  uint64_t last_applied_seq() const;
  /// The primary's audit root/size as of the last applied batch — what
  /// a freshly promoted vault must extend.
  std::string last_audit_root() const;
  uint64_t last_audit_size() const;

  /// Serves authenticated reads without disturbing the byte-exact
  /// replica: copies the directory to `view_dir` and opens a Vault
  /// there (reads append audit events, which must not diverge the
  /// replica from the shipped stream). `base` carries env/clock/keys;
  /// dir is overridden.
  Result<std::unique_ptr<Vault>> OpenReadView(const VaultOptions& base,
                                              const std::string& view_dir);

  /// Promotion: the scrub gate plus the ordinary crash-recovery open.
  /// A structurally damaged replica QUARANTINES instead of promoting —
  /// same policy as a bad shard. On success the returned vault serves
  /// as the new primary; callers verify ContentRoot equality against
  /// whatever survives of the old one.
  Result<std::unique_ptr<Vault>> Promote(const VaultOptions& base);

  const std::string& dir() const { return options_.dir; }

 private:
  explicit ReplicaApplier(Options options);
  Status Init();
  Status ScanExisting();
  Status VerifyBatch(const ShippedBatch& batch) const;
  Status ApplyChunk(const FileChunk& chunk,
                    std::vector<std::string>* touched);
  Status ReprobeFile(const std::string& rel);
  std::string AbsPath(const std::string& rel) const;
  void QuarantineLocked(const std::string& reason);

  Options options_;
  std::string auth_key_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* apply_batches_;
  obs::Counter* apply_bytes_;
  obs::Counter* apply_refused_;
  obs::Gauge* lag_gauge_;
  obs::Gauge* quarantined_gauge_;

  mutable std::mutex mu_;
  bool quarantined_ = false;
  bool promoted_ = false;
  std::string quarantine_reason_;
  uint64_t applied_batches_ = 0;
  uint64_t applied_bytes_ = 0;
  uint64_t lag_bytes_ = 0;
  uint64_t last_applied_seq_ = 0;
  std::string last_audit_root_;
  uint64_t last_audit_size_ = 0;
  uint64_t view_count_ = 0;

  struct AppliedFile {
    uint64_t size = 0;
    crypto::Sha256 ctx;  ///< running hash of the on-disk prefix
    std::unique_ptr<storage::WritableFile> writer;  ///< cached appender
  };
  /// The applied-offset cursor. Advanced only post-apply+sync; a file
  /// whose write failed is dropped and re-probed from disk.
  std::map<std::string, AppliedFile> files_;
};

/// Per-shard fan-out of ReplicationSource over a ShardedVault: one
/// stream per shard, cut concurrently on the vault's ingest pool.
class ShardedReplicationSource {
 public:
  explicit ShardedReplicationSource(ShardedVault* vault);

  ShardedReplicationSource(const ShardedReplicationSource&) = delete;
  ShardedReplicationSource& operator=(const ShardedReplicationSource&) =
      delete;

  uint32_t num_shards() const { return vault_->num_shards(); }

  /// Cuts one batch per healthy shard (`cursors` indexed by shard; a
  /// quarantined shard yields no batch — its slot stays empty with
  /// seq 0). Shards cut concurrently on the vault's worker pool.
  Result<std::vector<ShippedBatch>> CutAll(
      const std::vector<ReplicationCursor>& cursors);

  /// Wire entry point for one shard's stream.
  Result<std::string> HandleCutRequest(uint32_t shard,
                                       const Slice& encoded_cursor);

  ReplicationSource* shard_source(uint32_t k) {
    return k < sources_.size() ? sources_[k].get() : nullptr;
  }

  uint64_t batches_shipped() const;
  uint64_t bytes_shipped() const;
  uint64_t lag_bytes() const;

 private:
  ShardedVault* vault_;
  std::vector<std::unique_ptr<ReplicationSource>> sources_;
};

/// Per-shard fan-out of ReplicaApplier for a sharded standby: the
/// replica directory mirrors the primary's layout (shards.meta +
/// shard-<k>/), applies fan out on a private worker pool, and promotion
/// runs the scrub gate shard by shard, quarantining divergent shards
/// and opening the rest degraded.
class ShardedReplicaApplier {
 public:
  struct Options {
    storage::Env* env = nullptr;
    std::string dir;
    std::string entropy;  ///< the primary ShardedVault's (top) entropy
    uint32_t num_shards = 1;
    obs::MetricsRegistry* metrics = nullptr;
    /// 1 = apply shard batches sequentially (deterministic for crash
    /// matrices); 0 = min(num_shards, hardware threads).
    unsigned apply_threads = 0;
  };

  static Result<std::unique_ptr<ShardedReplicaApplier>> Open(
      const Options& options);

  ShardedReplicaApplier(const ShardedReplicaApplier&) = delete;
  ShardedReplicaApplier& operator=(const ShardedReplicaApplier&) = delete;

  uint32_t num_shards() const { return options_.num_shards; }
  ReplicaApplier* shard(uint32_t k) {
    return k < appliers_.size() ? appliers_[k].get() : nullptr;
  }

  /// Cursors for every shard, indexed by shard.
  Result<std::vector<ReplicationCursor>> Cursors() const;

  /// Applies one batch per shard (empty/seq-0 slots are skipped),
  /// fanned out on the pool. Returns the first failure; other shards
  /// still complete their applies.
  Status ApplyAll(const std::vector<ShippedBatch>& batches);

  bool any_quarantined() const;
  uint32_t quarantined_shards() const;
  uint64_t lag_bytes() const;
  uint64_t applied_batches() const;

  /// Sharded promotion: structural scrub gate per shard (divergent
  /// shards quarantine and stay down), then the ordinary degraded
  /// ShardedVault::Open. `base` carries env/clock/keys; dir and
  /// num_shards are overridden to the replica's.
  Result<std::unique_ptr<ShardedVault>> Promote(
      const ShardedVaultOptions& base);

 private:
  explicit ShardedReplicaApplier(Options options);

  Options options_;
  std::vector<std::unique_ptr<ReplicaApplier>> appliers_;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_REPLICATION_H_
