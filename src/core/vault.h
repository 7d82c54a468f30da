#ifndef MEDVAULT_CORE_VAULT_H_
#define MEDVAULT_CORE_VAULT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/access.h"
#include "core/audit.h"
#include "core/consent.h"
#include "core/keystore.h"
#include "core/provenance.h"
#include "core/record.h"
#include "core/record_cache.h"
#include "core/record_table.h"
#include "core/retention.h"
#include "core/scrub.h"
#include "core/secure_index.h"
#include "core/version_store.h"
#include "crypto/xmss.h"
#include "obs/metrics.h"
#include "storage/env.h"

namespace medvault::core {

/// Configuration for opening a Vault.
struct VaultOptions {
  storage::Env* env = nullptr;  ///< required
  std::string dir;              ///< required; vault root directory
  const Clock* clock = nullptr; ///< required (tests pass ManualClock)
  std::string master_key;       ///< 32 bytes; wraps all record keys
  std::string entropy;          ///< DRBG seed for keys and nonces
  /// XMSS tree height: 2^height signatures available for checkpoints and
  /// disposal certificates across the vault's life.
  int signer_height = 8;
  std::string system_id = "medvault-primary";
  /// Two-person integrity for disposal: when true, DisposeRecord is
  /// disabled and destruction requires RequestDisposal by one admin
  /// plus ApproveDisposal by a *different* admin.
  bool require_dual_disposal = false;
  /// Namespace for vault-assigned record ids: ids read
  /// "<record_id_prefix>-<n>". The default "r" gives the classic
  /// "r-<n>"; a sharded vault gives each shard a distinct prefix
  /// ("s<k>-r") so ids are globally unique and carry their shard.
  std::string record_id_prefix = "r";
  /// Namespace for consent-grant ids, "<consent_id_prefix>-<n>". The
  /// default "cg" gives "cg-<n>"; a sharded vault gives each shard
  /// "s<k>-cg" so a grant id names the shard that persists it.
  std::string consent_id_prefix = "cg";
  /// Optional authenticated decrypted-record cache consulted by the
  /// read path (see RecordCache). Not owned; may be shared by several
  /// vault shards. When null (default) every read decrypts from the
  /// version store — the seed behaviour, under which a read also
  /// re-verifies the on-disk bytes, so leave it null for tamper
  /// experiments that rely on read-time detection.
  RecordCache* cache = nullptr;
  /// Metrics registry for op latency histograms and slow-op tracing.
  /// Not owned; must outlive the vault. Null (default) uses the
  /// process-wide obs::MetricsRegistry::Default(); multi-tenant hosts
  /// pass per-tenant registries to keep telemetry apart. Metrics are
  /// operator telemetry only — nothing here feeds the audit log.
  obs::MetricsRegistry* metrics = nullptr;
};

/// MedVault: trustworthy regulatory-compliant health-record storage —
/// the "hybrid model" the paper's conclusion calls for. Composes:
///
///   VersionStore      WORM versions + correction chains   (integrity,
///                                                          mutability)
///   KeyStore          envelope keys + crypto-shredding    (confidential,
///                                                          secure delete)
///   SecureIndex       blinded encrypted keyword index     (private search)
///   AuditLog          hash chain + Merkle + signed heads  (audit trails)
///   ProvenanceTracker per-record custody chains           (accountability)
///   AccessController  RBAC + care scoping + break-glass   (access control)
///   RetentionManager  policy gate + disposal certificates (retention)
///
/// Every public operation is access-checked first and audited always —
/// including denials.
///
/// Thread safety: public Vault methods are guarded by one
/// `std::shared_mutex`. Read-only operations (ReadRecord, Search*,
/// RecordHistory, audit-trail reads, Verify* of in-memory state, meta
/// introspection) take a shared lock and run in parallel; mutations
/// (record creation/correction, disposal, principal/care changes,
/// break-glass, key rotation, checkpointing, VerifyAudit — which
/// re-reads the log file and must exclude in-flight appends) take an
/// exclusive lock. Read paths still append their mandatory audit
/// entries: AuditLog serializes those on its own internal mutex, so
/// audited reads do not force exclusive vault locking.
///
/// Lock order: vault lock (shared or exclusive) first, then the
/// AuditLog internal mutex. No AuditLog method calls back into Vault,
/// so the order cannot invert. The lock is NOT recursive: private
/// *Locked helpers assume the vault lock is already held and never
/// re-acquire it.
///
/// Migrator and BackupManager coordinate two vaults and additionally
/// touch components directly; run them without concurrent mutations on
/// the involved vaults.
class Vault {
 public:
  static Result<std::unique_ptr<Vault>> Open(const VaultOptions& options);

  Vault(const Vault&) = delete;
  Vault& operator=(const Vault&) = delete;

  // ---- Administration ------------------------------------------------

  /// Registers a principal. Bootstrap: while no admin exists, anyone may
  /// register; afterwards only admins.
  Status RegisterPrincipal(const PrincipalId& actor,
                           const Principal& principal);

  /// Declares a treating relationship.
  Status AssignCare(const PrincipalId& actor, const PrincipalId& clinician,
                    const PrincipalId& patient);

  /// Emergency access override; always audited, time-limited.
  Result<std::string> BreakGlass(const PrincipalId& clinician,
                                 const PrincipalId& patient,
                                 const std::string& justification,
                                 Timestamp duration);

  // ---- Patient-driven sharing ----------------------------------------

  /// The granting patient (`actor`, Role::kPatient) delegates read
  /// access to registered principal `grantee` for `duration`
  /// microseconds — to one record (`record_id` non-empty, owned by the
  /// patient and not disposed) or to all their records (`record_id`
  /// empty). The grant is HMAC-signed under a per-patient key, persisted
  /// in the state log (kStateConsent, signature re-verified on replay),
  /// and audited as kConsentGrant naming the grantee — which also lands
  /// it in the §164.528 disclosure index.
  Result<ConsentGrant> GrantConsent(const PrincipalId& actor,
                                    const PrincipalId& grantee,
                                    const RecordId& record_id,
                                    const std::string& purpose,
                                    Timestamp duration);

  /// Revokes a consent grant — the granting patient or an admin only.
  /// Synchronous and total: runs under the exclusive lock, removes the
  /// grant from the registry, purges every cached plaintext the grant
  /// could reach, persists the revocation (kStateConsentRevoke), and
  /// audits it. After this returns, no read under the grant can succeed.
  Status RevokeConsent(const PrincipalId& actor,
                       const std::string& grant_id);

  /// Live grants issued by `patient` — the patient themself, or
  /// audit-read authority.
  Result<std::vector<ConsentGrant>> ListConsents(const PrincipalId& actor,
                                                 const PrincipalId& patient);

  /// Live delegated grants across the vault (health reporting).
  size_t ActiveConsentCount() const;

  // ---- Record lifecycle ----------------------------------------------

  /// Creates a record (version 1) for `patient_id`, indexes `keywords`,
  /// applies `retention_policy` (e.g. "osha-30y").
  Result<RecordId> CreateRecord(const PrincipalId& actor,
                                const PrincipalId& patient_id,
                                const std::string& content_type,
                                const Slice& plaintext,
                                const std::vector<std::string>& keywords,
                                const std::string& retention_policy);

  /// One record of a batched ingest (see CreateRecordsBatch).
  struct NewRecord {
    PrincipalId patient_id;
    std::string content_type;
    std::string plaintext;
    std::vector<std::string> keywords;
    std::string retention_policy;
  };

  /// Bulk ingest fast path: creates all records under one exclusive
  /// lock with the per-record bookkeeping coalesced — one state-log
  /// flush for all metas, grouped index-posting appends, and a single
  /// batched audit append — instead of one of each per record.
  /// Validation (access, retention policies) runs for the whole batch
  /// before any record is created; afterwards a failure mid-batch
  /// returns the error and earlier records of the batch remain created
  /// (same durability model as calling CreateRecord in a loop).
  Result<std::vector<RecordId>> CreateRecordsBatch(
      const PrincipalId& actor, const std::vector<NewRecord>& batch);

  /// Reads the latest version (or a specific one).
  Result<RecordVersion> ReadRecord(const PrincipalId& actor,
                                   const RecordId& record_id) {
    return ReadRecordAt(actor, record_id, std::nullopt);
  }
  Result<RecordVersion> ReadRecordVersion(const PrincipalId& actor,
                                          const RecordId& record_id,
                                          uint32_t version) {
    return ReadRecordAt(actor, record_id, version);
  }

  /// Appends a correction (new version); prior versions remain readable
  /// and verifiable.
  Result<VersionHeader> CorrectRecord(
      const PrincipalId& actor, const RecordId& record_id,
      const Slice& new_plaintext, const std::string& reason,
      const std::vector<std::string>& keywords);

  /// Blinded keyword search; results are scoped to records the actor may
  /// read ("minimum necessary").
  Result<std::vector<RecordId>> SearchKeyword(const PrincipalId& actor,
                                              const std::string& term);

  /// Conjunctive blinded search: records matching *all* terms, scoped
  /// the same way.
  Result<std::vector<RecordId>> SearchKeywordsAll(
      const PrincipalId& actor, const std::vector<std::string>& terms);

  /// Version headers of a record, oldest first.
  Result<std::vector<VersionHeader>> RecordHistory(const PrincipalId& actor,
                                                   const RecordId& record_id);

  /// Crypto-shreds the record after its retention expired. Admin only;
  /// returns a signed disposal certificate. Disabled when the vault was
  /// opened with require_dual_disposal (use the request/approve flow).
  Result<DisposalCertificate> DisposeRecord(const PrincipalId& actor,
                                            const RecordId& record_id);

  /// Records whose retention has expired and that are not under legal
  /// hold — the disposal work-list for records managers. Admin/auditor.
  Result<std::vector<RecordMeta>> ListExpiredRecords(
      const PrincipalId& actor);

  /// Physically reclaims WORM segments in which every record has been
  /// crypto-shredded (media re-use, HIPAA §164.310(d)(2)(ii)). Returns
  /// the number of segments dropped. Admin only; audited. Reclaimed
  /// records keep their catalog tombstones and custody chains but can
  /// no longer be byte-migrated (their bytes are gone — by design).
  Result<int> ReclaimDisposedMedia(const PrincipalId& actor);

  /// Places a litigation hold: the record cannot be disposed of (even
  /// past retention) until the hold is released. Admin only; audited.
  Status PlaceLegalHold(const PrincipalId& actor, const RecordId& record_id,
                        const std::string& reason);
  Status ReleaseLegalHold(const PrincipalId& actor,
                          const RecordId& record_id,
                          const std::string& reason);

  /// Two-person disposal, step 1: an admin requests destruction of an
  /// expired record. Retention is checked here AND at approval. Returns
  /// the request id; the request is audited.
  Result<std::string> RequestDisposal(const PrincipalId& actor,
                                      const RecordId& record_id);

  /// Two-person disposal, step 2: a *different* admin approves, which
  /// executes the disposal. Pending requests are session-scoped (they
  /// do not survive reopen — re-request after a restart).
  Result<DisposalCertificate> ApproveDisposal(const PrincipalId& actor,
                                              const std::string& request_id);

  /// Durability barrier over the whole vault, in commit-point order:
  /// every side log (versions, index, audit, provenance) is synced
  /// BEFORE the state log. A record counts as committed exactly when
  /// its meta is durable in state.log — so at that instant all of the
  /// record's bytes already are, and a crash can never leave a durable
  /// meta pointing at lost data. Callers that need an ingest to survive
  /// power failure call this after CreateRecord/CreateRecordsBatch.
  /// Every call runs its own sync; concurrent writers coalesce one level
  /// up, in ShardedVault's group committer.
  Status SyncAll();

  // ---- Audit & custody -----------------------------------------------

  /// Signs the current audit tree head. The auditor should keep the
  /// returned checkpoint off-site; it also goes into the log.
  Result<SignedCheckpoint> CheckpointAudit();

  /// Full audit-trail verification from on-disk bytes.
  Status VerifyAudit() const;

  /// Proves the log extends a previously retained checkpoint.
  Status VerifyAuditAgainstTrusted(const SignedCheckpoint& trusted) const;

  /// Audit events (auditor/admin only), optionally filtered by record.
  /// A record's trail costs O(that record's events).
  Result<std::vector<AuditEvent>> ReadAuditTrail(const PrincipalId& actor,
                                                 const RecordId& record_id);

  /// Up to `max_events` audit events from seq `begin` on (auditor/admin
  /// only) — one page of the trail.
  Result<std::vector<AuditEvent>> ReadAuditRange(const PrincipalId& actor,
                                                 uint64_t begin,
                                                 uint64_t max_events);

  /// A record's chain of custody (auditor/admin only).
  Result<std::vector<CustodyEvent>> GetCustodyChain(const PrincipalId& actor,
                                                    const RecordId& record_id);

  /// HIPAA §164.528 "accounting of disclosures": every audit event that
  /// disclosed content of one of `patient_id`'s records — reads
  /// (including historical versions), break-glass grants, and consent
  /// grants (each names its recipient). Patients may request their own
  /// accounting; auditors/admins anyone's.
  Result<std::vector<AuditEvent>> AccountingOfDisclosures(
      const PrincipalId& actor, const PrincipalId& patient_id);

  /// All break-glass events, for the mandatory periodic review that
  /// makes an emergency override acceptable (auditor/admin only).
  Result<std::vector<AuditEvent>> ListBreakGlassEvents(
      const PrincipalId& actor);

  /// Cheap RBAC gate: does `actor` hold audit-read authority? Denials
  /// are audited like any other access check. Server routes that serve
  /// derived audit data (checkpoints, proofs) use this instead of
  /// copying the whole trail just to test authority.
  Status CheckAuditAccess(const PrincipalId& actor) const;

  // ---- Verification & introspection ----------------------------------

  Status VerifyRecord(const RecordId& record_id) const;
  /// Records + audit + provenance, end to end.
  Status VerifyEverything() const;

  /// Merkle root over all version-entry hashes: two vaults holding
  /// byte-identical content have equal roots (basis of verifiable
  /// migration).
  std::string ContentRoot() const;

  Result<RecordMeta> GetRecordMeta(const RecordId& record_id) const;
  std::vector<RecordId> ListRecordIds() const;

  /// Health facts for the observability layer (obs::CollectHealth):
  /// store occupancy, disposal backlog, and signer-budget consumption.
  /// Gathered under the shared lock from in-memory state — no I/O.
  struct HealthStats {
    uint64_t records = 0;            ///< live (non-disposed) records
    uint64_t disposed = 0;           ///< crypto-shredded tombstones
    uint64_t legal_holds = 0;        ///< live records under legal hold
    uint64_t retention_backlog = 0;  ///< expired + unheld, not yet disposed
    uint64_t signer_leaves_used = 0;
    uint64_t signer_leaves_remaining = 0;
  };
  HealthStats CollectHealthStats() const;

  /// Media scrub: walks every on-disk artifact (structural CRC32C scan
  /// of logs and segment frames, orphan/missing classification via
  /// core::Scrubber) and then runs the deep content verification
  /// (records + audit + index + provenance), returning both in one
  /// ScrubReport. The outcome is remembered for health reporting
  /// (LastScrub) and counted in the metrics registry
  /// (vault.scrub.runs / vault.scrub.bytes / vault.scrub.dirty).
  Result<ScrubReport> Scrub();

  /// Facts about the most recent Scrub() on this handle; `ran` is false
  /// if none has run yet.
  struct ScrubStats {
    bool ran = false;
    Timestamp at = 0;
    uint64_t files_scanned = 0;
    uint64_t corrupt_files = 0;
    uint64_t orphan_files = 0;
    bool clean = false;
  };
  ScrubStats LastScrub() const;

  /// Rotates the key-wrapping master key (30-year horizon hygiene).
  Status RotateMasterKey(const PrincipalId& actor,
                         const Slice& new_master_key);

  // ---- Component access (migration/backup modules, tests) -------------

  KeyStore* keystore() { return keystore_.get(); }
  VersionStore* versions() { return versions_.get(); }
  ProvenanceTracker* provenance() { return provenance_.get(); }
  AuditLog* audit() { return audit_.get(); }
  AccessController* access() { return &access_; }
  RetentionManager* retention() { return &retention_; }
  crypto::XmssSigner* signer() { return signer_.get(); }
  SecureIndex* index() { return index_.get(); }
  const VaultOptions& options() const { return options_; }
  Timestamp Now() const { return options_.clock->Now(); }
  /// The registry this vault reports into (never null after Open).
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }

  /// The vault's signature-verification parameters.
  const std::string& SignerPublicKey() const;
  const std::string& SignerPublicSeed() const;
  int SignerHeight() const { return options_.signer_height; }

  /// Unaudited role check for a non-record operation, under the vault's
  /// shared lock (migration and backup authorize through this).
  Status CheckAccess(const PrincipalId& actor, Operation op) const;

  /// A registered principal, read under the vault's shared lock (the
  /// server's login and proof checks look principals up through this).
  Result<Principal> GetPrincipal(const PrincipalId& id) const;

  /// Appends an audit event on behalf of internal modules (migration,
  /// backup).
  Status Audit(const PrincipalId& actor, AuditAction action,
               const RecordId& record_id, const std::string& details);

  /// Signs an arbitrary statement with the vault's XMSS key (migration
  /// receipts, backup manifests) and persists the signer state. Returns
  /// the encoded signature.
  Result<std::string> SignStatement(const Slice& payload);

  /// Persists an updated record meta (migration import path).
  Status PutRecordMeta(const RecordMeta& meta);

  /// Runs `fn` with the store quiesced: the exclusive lock held and a
  /// full sync wave completed, so for as long as `fn` runs the on-disk
  /// artifacts are a durable, crash-consistent snapshot and nothing
  /// mutates them. `fn` must not call back into the vault's public API
  /// (the lock is not recursive); reading the vault's files through the
  /// env is the intended use — this is how ReplicationSource cuts a
  /// shipped batch at a group-commit window boundary.
  Status WithQuiescedStore(const std::function<Status()>& fn);

 private:
  /// A RecordMeta as held per record ordinal, with its patient and
  /// policy interned.
  struct MetaSlot {
    Timestamp created_at = 0;
    Timestamp retention_until = 0;
    uint32_t patient = RecordTable::kNone;  ///< kNone: no meta
    uint32_t policy = 0;
    uint32_t latest_version = 0;
    bool disposed = false;
    bool legal_hold = false;
  };

  explicit Vault(VaultOptions options);

  Status Init();
  /// Builds signer_ from the leaves in signer.tree when the file is
  /// intact and tagged for this vault; otherwise runs key generation,
  /// rewrites the file and counts "vault.open.signer_rebuilt". The file
  /// never fails an open: a write error only means the next open runs
  /// key generation again.
  Status LoadOrBuildSigner(const std::string& signer_secret);
  Status LoadState();
  /// Cross-log reconciliation after a possible crash (runs on every
  /// open; idempotent). The state log is the commit point: catalog refs
  /// beyond a record's committed latest version (or pointing at frames
  /// lost with the active segment's tail) are dropped, keys without a
  /// committed meta are removed, half-finished disposals are completed,
  /// and metas whose surviving version count shrank are lowered. Any
  /// action is recorded as one kRecovery audit event and made durable.
  Status RecoverAfterUncleanShutdown();

  // *Locked helpers require mu_ held by the caller: exclusive for
  // anything that writes vault state, shared-or-exclusive for the
  // audit/check helpers (AuditLog has its own internal mutex).
  Status AppendStateEntryLocked(uint8_t kind, const Slice& payload);
  /// Appends several pre-framed state records (kind byte already
  /// prepended) as one buffered log write. Requires exclusive mu_.
  Status AppendStateEntriesLocked(const std::vector<std::string>& records);
  Status SyncAllLocked();
  /// The deep checks behind VerifyEverything and Scrub: Merkle/hash
  /// bindings from the catalog down to segment bytes, the audit hash
  /// chain and XMSS checkpoints, the index, then the custody chains.
  /// Requires exclusive mu_ (the audit check re-reads the log file).
  Status VerifyDeepLocked() const;
  /// The one create path, behind CreateRecord (a batch of one) and
  /// CreateRecordsBatch. Requires exclusive mu_.
  Result<std::vector<RecordId>> CreateRecordsLocked(
      const PrincipalId& actor, const std::vector<NewRecord>& batch);
  /// Durably records that the signer's NEXT one-time leaf is spent —
  /// appended and synced to the state log BEFORE the signature is
  /// produced. XMSS leaves must never sign twice; reserving first means
  /// a crash right after a signature escapes (audit checkpoint,
  /// disposal certificate) can at worst waste the leaf, never reuse it.
  Status ReserveSignerLeafLocked();
  Result<RecordMeta> RequireLiveMetaLocked(const RecordId& record_id) const;
  /// The meta slot of record ordinal `r`, or null if it has no meta
  /// (kNone included).
  const MetaSlot* MetaAt(uint32_t r) const;
  /// The meta of record ordinal `r`, which has one, as the public type.
  RecordMeta MetaOf(uint32_t r) const;
  /// The ordinals of every record with a meta, in id order.
  std::vector<uint32_t> MetaOrdinalsById() const;
  Status AuditLocked(const PrincipalId& actor, AuditAction action,
                     const RecordId& record_id,
                     const std::string& details) const;
  /// Read of one version through the optional authenticated cache: a
  /// hit must match the catalog's current entry hash; misses decrypt
  /// from the version store and populate the cache. Requires mu_
  /// (shared or exclusive).
  /// One body for both reads; `version` unset reads the latest.
  Result<RecordVersion> ReadRecordAt(const PrincipalId& actor,
                                     const RecordId& record_id,
                                     std::optional<uint32_t> version);
  Result<RecordVersion> ReadVersionCachedLocked(const RecordId& record_id,
                                                uint32_t version) const;
  /// Access check + denial audit. `basis` (optional) receives why a
  /// successful check passed, so read paths can name break-glass /
  /// consent exercises in their kRead audit details.
  Status CheckAndAuditLocked(const PrincipalId& actor, Operation op,
                             const RecordId& record_id,
                             const PrincipalId& patient_id,
                             AccessBasis* basis = nullptr) const;
  /// Reads audit events `seqs` back from the log, appending to `out`.
  Status ReadAuditEvents(const std::vector<uint64_t>& seqs,
                         std::vector<AuditEvent>* out) const;
  /// Registers `meta` in memory (catalog + per-patient index) and
  /// appends it to the state log. Requires exclusive mu_.
  Status PutRecordMetaLocked(const RecordMeta& meta);
  /// In-memory half of PutRecordMetaLocked, shared with state replay:
  /// updates the record's meta slot and, for a first sighting of the
  /// record, the per-patient index (a record's patient never changes).
  void StoreMetaLocked(const RecordMeta& meta);
  /// Shared disposal tail: custody event, certificate, key destruction,
  /// meta flip, audit entry. `authorizers` is "a" or "a+b". Requires
  /// exclusive mu_.
  Result<DisposalCertificate> ExecuteDisposalLocked(
      const PrincipalId& actor, RecordMeta meta,
      const std::string& authorizers);

  VaultOptions options_;
  std::string signer_public_seed_;
  /// Resolved registry (options_.metrics or the process default) and
  /// the per-op histograms and consent counters cached at Open so hot
  /// paths never do a name lookup.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::VaultOpMetrics op_metrics_;
  obs::Counter* consent_granted_ = nullptr;
  obs::Counter* consent_revoked_ = nullptr;
  obs::Counter* consent_exercised_ = nullptr;
  mutable std::shared_mutex mu_;
  ScrubStats last_scrub_;  // guarded by mu_

  /// Every record id the shard's logs name, each held once: the key
  /// store (and through it the version store), the custody chains, the
  /// audit log's back-pointers and the metas below keep fixed-width
  /// slots by its ordinals. Declared before them, so it outlives them.
  RecordTable records_;

  AccessController access_;
  /// Delegated sharing grants. Declared before any use in Init: the
  /// registry is configured (signing root + id prefix) and attached to
  /// access_ BEFORE LoadState so replayed kStateConsent entries verify
  /// and land in a ready table.
  ConsentRegistry consent_;
  RetentionManager retention_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<VersionStore> versions_;
  std::unique_ptr<SecureIndex> index_;
  std::unique_ptr<AuditLog> audit_;
  std::unique_ptr<ProvenanceTracker> provenance_;
  std::unique_ptr<crypto::XmssSigner> signer_;
  std::unique_ptr<storage::log::Writer> state_writer_;

  struct DisposalRequest {
    RecordId record_id;
    PrincipalId requester;
  };

  std::deque<MetaSlot> metas_;  ///< by record ordinal
  RecordTable patients_;
  RecordTable policies_;
  /// Per-patient record index (disclosure accounting), by patient
  /// ordinal: rebuilt from the same state-log replay that rebuilds
  /// metas_, so the two can never disagree. Records keep the order they
  /// were first seen in.
  std::deque<std::vector<uint32_t>> records_by_patient_;
  std::map<std::string, DisposalRequest> disposal_requests_;
  uint64_t next_disposal_request_ = 1;
  uint64_t next_record_num_ = 1;
  bool has_admin_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_VAULT_H_
