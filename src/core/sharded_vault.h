#ifndef MEDVAULT_CORE_SHARDED_VAULT_H_
#define MEDVAULT_CORE_SHARDED_VAULT_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/record_cache.h"
#include "core/group_commit.h"
#include "core/shard_router.h"
#include "core/vault.h"
#include "storage/env.h"

namespace medvault {
class WorkerPool;
}

namespace medvault::core {

/// How ShardedVault::Open treats shards with damaged media.
enum class OpenMode {
  /// Any shard that fails to open fails the whole open (historical
  /// behavior; the right default for integrity-first deployments).
  kStrict = 0,
  /// A shard that fails to open — or whose directory fails a structural
  /// scrub — is *quarantined* instead: the vault opens with that shard
  /// offline, healthy shards keep serving reads and writes, operations
  /// routed to a quarantined shard fail with kUnavailable, and
  /// the shard can be repaired (BackupManager::Repair) and brought back
  /// with RejoinShard() without closing the vault. Availability for the
  /// many must survive media death of the few (paper §3: reliability).
  kDegraded = 1,
};

/// Configuration for opening a ShardedVault.
struct ShardedVaultOptions {
  storage::Env* env = nullptr;  ///< required
  std::string dir;              ///< required; sharded-vault root directory
  const Clock* clock = nullptr; ///< required
  /// 32 bytes. Each shard's key-wrapping master key is derived from it
  /// via HKDF("shard-master-<k>"), so shards form independent key
  /// domains: compromising one shard's wrapped-key log does not expose
  /// a sibling's.
  std::string master_key;
  /// Root entropy; per-shard DRBG/signer/index secrets derive from it
  /// via HKDF("shard-entropy-<k>"), so every shard has its own signer
  /// identity and blinding keys.
  std::string entropy;
  /// Fixed at first open and persisted in `<dir>/shards.meta`; a later
  /// open with a different count is refused (see ShardRouter).
  uint32_t num_shards = 1;
  int signer_height = 8;  ///< per shard
  std::string system_id = "medvault-sharded";
  bool require_dual_disposal = false;
  /// Worker threads for every per-shard fan-out: the open (scrub and
  /// replay), sync waves, batch ingest and verification. 0 picks
  /// min(num_shards, hardware_concurrency); 1 forces inline sequential
  /// execution in shard order — fully deterministic, which the crash
  /// matrix requires to replay identical I/O boundary sequences.
  unsigned ingest_threads = 0;
  /// Metrics registry shared by the sharded wrapper ("sharded.*" op
  /// histograms) and every shard ("vault.*"). Not owned; null uses the
  /// process-wide obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics = nullptr;
  /// Group-commit window (see GroupCommitter): how long a SyncAll
  /// leader lingers to gather concurrent committers before one sync
  /// wave fans out over all shards. This committer is the only one: a
  /// shard's own SyncAll syncs directly. 0 adds no latency; coalescing
  /// is then opportunistic only.
  uint64_t commit_window_micros = 0;
  /// Media-fault posture of Open — see OpenMode.
  OpenMode open_mode = OpenMode::kStrict;
};

/// Horizontal scale-out of the Vault: records are partitioned across N
/// fully independent Vault shards, each with its own segment store,
/// catalog, keystore, index, audit and provenance logs under
/// `<dir>/shard-<k>/`, so writes to different shards proceed in
/// parallel — per-shard lock and log domains instead of the single
/// global ones that classically bottleneck secure stores.
///
/// Placement: a record lives on the shard of its *patient*
/// (`ShardRouter::ShardOf(patient_id)`), so one patient's records —
/// the unit of clinical access — are colocated. Record ids embed the
/// shard ("s<k>-r-<n>"), making every record-id-keyed operation O(1)
/// routable without a directory service.
///
/// Cross-shard semantics:
///   * Principals and care relationships are replicated to every shard
///     (they are tiny and read-hot); searches, audit verification, and
///     work-list queries fan out and merge per-shard results.
///   * Each shard keeps its own audit chain, signer, and commit point;
///     crash recovery runs per shard, in parallel (a crash between
///     two shards' sync points recovers each shard to its own
///     acknowledged state — there are no cross-shard references to
///     orphan by construction).
///   * SyncAll syncs every shard in one wave; a batch spanning shards is
///     acknowledged only by a SyncAll that covered every shard.
///
/// Thread safety: router and pool are immutable after Open; the shard
/// slot table is guarded by a shared mutex because a degraded open can
/// leave slots empty (quarantined) and RejoinShard fills them later. A
/// slot only ever transitions null -> Vault* — an obtained Vault* stays
/// valid for the ShardedVault's lifetime — so readers take the shared
/// lock just long enough to load the pointer. All other mutable state
/// lives behind each shard's own lock, the shared cache's mutex, and
/// the pool's queue mutex, so concurrent callers enjoy true cross-shard
/// parallelism.
class ShardedVault {
 public:
  static Result<std::unique_ptr<ShardedVault>> Open(
      const ShardedVaultOptions& options);
  ~ShardedVault();

  ShardedVault(const ShardedVault&) = delete;
  ShardedVault& operator=(const ShardedVault&) = delete;

  // ---- Administration (replicated to every shard) ---------------------

  Status RegisterPrincipal(const PrincipalId& actor,
                           const Principal& principal);
  Status AssignCare(const PrincipalId& actor, const PrincipalId& clinician,
                    const PrincipalId& patient);
  /// Routed to the patient's shard (that is where their records live).
  Result<std::string> BreakGlass(const PrincipalId& clinician,
                                 const PrincipalId& patient,
                                 const std::string& justification,
                                 Timestamp duration);

  // ---- Patient-driven sharing -----------------------------------------

  /// Routed to the granting patient's shard — the shard holding every
  /// record the grant can cover. See Vault::GrantConsent.
  Result<ConsentGrant> GrantConsent(const PrincipalId& actor,
                                    const PrincipalId& grantee,
                                    const RecordId& record_id,
                                    const std::string& purpose,
                                    Timestamp duration);
  /// Routed by the grant id itself ("s<k>-cg-<n>" embeds the shard).
  Status RevokeConsent(const PrincipalId& actor,
                       const std::string& grant_id);
  /// Routed to `patient`'s shard.
  Result<std::vector<ConsentGrant>> ListConsents(const PrincipalId& actor,
                                                 const PrincipalId& patient);
  /// Sum over healthy shards (health reporting).
  size_t ActiveConsentCount() const;

  // ---- Record lifecycle ----------------------------------------------

  Result<RecordId> CreateRecord(const PrincipalId& actor,
                                const PrincipalId& patient_id,
                                const std::string& content_type,
                                const Slice& plaintext,
                                const std::vector<std::string>& keywords,
                                const std::string& retention_policy);

  /// Cross-shard batched ingest: the batch is partitioned by patient
  /// shard and the per-shard sub-batches run as parallel
  /// Vault::CreateRecordsBatch calls on the worker pool (each shard's
  /// coalesced state/index/audit bookkeeping stays intact). Returned
  /// ids line up with the input order. On error the first failing
  /// shard's status is returned; sub-batches on other shards may have
  /// been created (same durability model as the single-vault batch —
  /// nothing is acknowledged until SyncAll).
  Result<std::vector<RecordId>> CreateRecordsBatch(
      const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch);

  Result<RecordVersion> ReadRecord(const PrincipalId& actor,
                                   const RecordId& record_id) {
    return ReadRecordAt(actor, record_id, std::nullopt);
  }
  Result<RecordVersion> ReadRecordVersion(const PrincipalId& actor,
                                          const RecordId& record_id,
                                          uint32_t version) {
    return ReadRecordAt(actor, record_id, version);
  }
  Result<VersionHeader> CorrectRecord(
      const PrincipalId& actor, const RecordId& record_id,
      const Slice& new_plaintext, const std::string& reason,
      const std::vector<std::string>& keywords);

  /// Fan-out search, merged across shards (shard order, per-shard order
  /// preserved).
  Result<std::vector<RecordId>> SearchKeyword(const PrincipalId& actor,
                                              const std::string& term);
  Result<std::vector<RecordId>> SearchKeywordsAll(
      const PrincipalId& actor, const std::vector<std::string>& terms);

  Result<std::vector<VersionHeader>> RecordHistory(const PrincipalId& actor,
                                                   const RecordId& record_id);

  Result<DisposalCertificate> DisposeRecord(const PrincipalId& actor,
                                            const RecordId& record_id);
  Result<std::vector<RecordMeta>> ListExpiredRecords(
      const PrincipalId& actor);
  Result<int> ReclaimDisposedMedia(const PrincipalId& actor);
  Status PlaceLegalHold(const PrincipalId& actor, const RecordId& record_id,
                        const std::string& reason);
  Status ReleaseLegalHold(const PrincipalId& actor,
                          const RecordId& record_id,
                          const std::string& reason);
  /// Two-person disposal across shards: request ids are
  /// shard-qualified ("s<k>:dr-<n>") so approval routes back.
  Result<std::string> RequestDisposal(const PrincipalId& actor,
                                      const RecordId& record_id);
  Result<DisposalCertificate> ApproveDisposal(const PrincipalId& actor,
                                              const std::string& request_id);

  /// Durability barrier over every shard. Concurrent callers coalesce
  /// into one sync *wave* per commit window (GroupCommitter); within a
  /// wave every healthy shard syncs concurrently on the worker pool
  /// (in shard order when ingest_threads forces inline execution). A
  /// cross-shard batch is fully acknowledged only once this returns OK.
  Status SyncAll();

  /// CreateRecordsBatch plus the group-committed cross-shard barrier:
  /// ids are returned only after one sync wave covering every involved
  /// shard has completed. Concurrent durable batches share a window —
  /// one wave across all shards, not one sync per shard per batch.
  Result<std::vector<RecordId>> CreateRecordsBatchDurable(
      const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch);

  // ---- Audit & custody ------------------------------------------------

  /// One signed checkpoint per shard (each shard has its own audit
  /// chain and signer), in shard order.
  Result<std::vector<SignedCheckpoint>> CheckpointAudit();
  /// Every shard's audit chain must verify.
  Status VerifyAudit() const;
  /// Record-scoped trails route to the record's shard; an empty record
  /// id merges every shard's trail (shard order).
  Result<std::vector<AuditEvent>> ReadAuditTrail(const PrincipalId& actor,
                                                 const RecordId& record_id);
  Result<std::vector<CustodyEvent>> GetCustodyChain(const PrincipalId& actor,
                                                    const RecordId& record_id);
  /// Routed to the patient's shard — all disclosures of a patient's
  /// records happen there.
  Result<std::vector<AuditEvent>> AccountingOfDisclosures(
      const PrincipalId& actor, const PrincipalId& patient_id);
  Result<std::vector<AuditEvent>> ListBreakGlassEvents(
      const PrincipalId& actor);

  // ---- Verification & introspection -----------------------------------

  Status VerifyRecord(const RecordId& record_id) const;
  Status VerifyEverything() const;
  /// Merkle root over the per-shard content roots (shard order): two
  /// sharded vaults with byte-identical shard contents have equal
  /// roots.
  std::string ContentRoot() const;
  Result<RecordMeta> GetRecordMeta(const RecordId& record_id) const;
  std::vector<RecordId> ListRecordIds() const;
  Status RotateMasterKey(const PrincipalId& actor,
                         const Slice& new_master_key);

  // ---- Media faults: quarantine, scrub, repair, rejoin ----------------

  /// True if shard `k` is offline after a degraded open (or a failed
  /// rejoin). Quarantined shards serve nothing; everything else does.
  bool IsQuarantined(uint32_t k) const;
  /// Why shard `k` is quarantined ("" when healthy).
  std::string QuarantineReason(uint32_t k) const;
  /// Indices of all quarantined shards, ascending.
  std::vector<uint32_t> QuarantinedShards() const;

  /// Scrubs shard `k`: a healthy shard gets the full Vault::Scrub
  /// (structural + deep); a quarantined shard gets the offline
  /// structural scan of its directory — exactly what repair needs.
  Result<ScrubReport> ScrubShard(uint32_t k);

  /// Brings a quarantined shard back after its files were repaired
  /// (e.g. BackupManager::Repair against ShardDirPath(k)): re-scrubs
  /// the directory, refuses with kFailedPrecondition if still dirty,
  /// then opens the shard and fills its slot. Healthy shards are a
  /// no-op. NOTE: admin state replicated while the shard was offline
  /// (principals, care links) must be re-replicated by the caller.
  Status RejoinShard(uint32_t k);

  /// On-disk directory of shard `k` (repair tooling).
  std::string ShardDirPath(uint32_t k) const;

  Timestamp Now() const { return options_.clock->Now(); }

  uint32_t num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }
  /// Direct shard access (tests, migration, per-shard audit checks).
  /// Null while shard `k` is quarantined (degraded opens only; a strict
  /// open never leaves a null slot).
  Vault* shard(uint32_t k) {
    std::shared_lock lock(shards_mu_);
    return shards_[k].get();
  }
  const Vault* shard(uint32_t k) const {
    std::shared_lock lock(shards_mu_);
    return shards_[k].get();
  }
  /// The shared authenticated read cache. One RecordCache serves all
  /// shards: record ids are globally unique ("s<k>-r-<n>"), and a
  /// single LRU budget adapts to skewed traffic.
  RecordCache* cache() { return cache_.get(); }
  const RecordCache* cache() const { return cache_.get(); }
  RecordCache::Stats CacheStats() const;
  /// The registry the wrapper and all shards report into (never null
  /// after Open).
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }
  /// The cross-shard fan-out pool (replication cuts shards on it too).
  WorkerPool* pool() { return pool_.get(); }
  const ShardedVaultOptions& options() const { return options_; }

 private:
  explicit ShardedVault(ShardedVaultOptions options);

  Status Init();
  /// Shard owning `record_id`, or NotFound for ids that do not name a
  /// valid shard of this vault.
  Result<uint32_t> RouteRecordId(const RecordId& record_id) const;
  /// Shard `k` if healthy, kUnavailable naming the quarantine reason
  /// otherwise. Routed operations go through this.
  Result<Vault*> RequireShard(uint32_t k) const;
  /// The healthy shard holding `record_id`: RouteRecordId, then
  /// RequireShard. Every record-id-keyed operation routes through it.
  Result<Vault*> RecordShard(const RecordId& record_id) const;
  /// The sequential fan-out: fn(Vault*) on every healthy shard in shard
  /// order, skipping quarantined shards and stopping at the first error.
  /// Searches, merges and admin replication stay off the pool on
  /// purpose: each shard's access check audits a denial, so a pooled run
  /// would go on to audit denials on the later shards too.
  template <typename Fn>
  Status ForEachHealthyShard(Fn&& fn) const;
  /// One body for both reads; `version` unset reads the latest.
  Result<RecordVersion> ReadRecordAt(const PrincipalId& actor,
                                     const RecordId& record_id,
                                     std::optional<uint32_t> version);
  /// Derives shard `k`'s key domain and opens its Vault.
  Result<std::unique_ptr<Vault>> OpenShard(uint32_t k);
  /// One commit wave: every healthy shard's SyncAll, pooled.
  Status SyncShardsWave();
  /// Re-publishes the "sharded.quarantined" gauge (takes the shared
  /// lock itself).
  void PublishQuarantineGauge() const;

  ShardedVaultOptions options_;
  ShardRouter router_;
  /// Wrapper-level telemetry: "sharded.*" histograms time the whole
  /// cross-shard operation (fan-out + merge), while each shard's own
  /// "vault.*" histograms time its slice — the gap between the two is
  /// the cost of coordination.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::VaultOpMetrics op_metrics_;
  std::unique_ptr<RecordCache> cache_;
  /// Guards shards_ slot pointers and quarantine_reasons_. Slots only
  /// transition null -> open vault (RejoinShard); a loaded Vault* stays
  /// valid for the wrapper's lifetime.
  mutable std::shared_mutex shards_mu_;
  std::vector<std::unique_ptr<Vault>> shards_;
  /// Per-shard quarantine reason; "" means healthy. Parallel to shards_.
  std::vector<std::string> quarantine_reasons_;
  std::unique_ptr<WorkerPool> pool_;
  /// The group committer ("commit.window.sharded.*" metrics); its wave
  /// fans shard SyncAlls out over pool_.
  std::unique_ptr<GroupCommitter> committer_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_SHARDED_VAULT_H_
