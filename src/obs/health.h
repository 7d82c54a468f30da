#ifndef MEDVAULT_OBS_HEALTH_H_
#define MEDVAULT_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/record_cache.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/instrumented_env.h"

namespace medvault::core {
class Vault;
class ShardedVault;
class ShardedReplicationSource;
class ShardedReplicaApplier;
class ShardedTransparencyService;
}  // namespace medvault::core

namespace medvault::obs {

/// Liveness/health facts of one vault shard — the operational numbers a
/// records manager watches over a 30-year horizon: how much is stored,
/// how much disposal work is overdue (retention backlog), and how many
/// one-time XMSS leaves the shard's signer has left before checkpoints
/// and disposal certificates stop being issuable.
struct ShardHealth {
  uint32_t shard = 0;
  uint64_t records = 0;            ///< live (non-disposed) records
  uint64_t disposed = 0;           ///< crypto-shredded tombstones
  uint64_t legal_holds = 0;        ///< live records under litigation hold
  uint64_t retention_backlog = 0;  ///< expired, not held, awaiting disposal
  uint64_t signer_leaves_used = 0;
  uint64_t signer_leaves_remaining = 0;
  /// Shard is offline after a degraded open (media damage); counts
  /// above are zero because the shard cannot be asked.
  bool quarantined = false;
  std::string quarantine_reason;
  /// Most recent Vault::Scrub on this shard (emitted only when one ran).
  bool has_last_scrub = false;
  int64_t last_scrub_at = 0;
  uint64_t last_scrub_corrupt_files = 0;
  uint64_t last_scrub_orphan_files = 0;
  bool last_scrub_clean = false;
};

/// One JSON-dumpable snapshot of everything the observability layer
/// knows: per-op latency histograms and counters (MetricsRegistry),
/// storage-layer I/O tallies (InstrumentedEnv), read-cache efficacy,
/// and per-shard vault health. Purely diagnostic — built from relaxed
/// atomic reads, no integrity claims, never written to the audit log.
struct HealthReport {
  /// Snapshot time in microseconds since epoch, from the vault's Clock
  /// (callers without a vault pass their own; tests use ManualClock so
  /// golden dumps are deterministic).
  int64_t generated_at = 0;

  MetricsRegistry::RegistrySnapshot metrics;

  bool has_env_io = false;
  storage::IoStatsSnapshot env_io;

  bool has_cache = false;
  core::RecordCache::Stats cache;
  uint64_t cache_entries = 0;
  uint64_t cache_charge_bytes = 0;
  uint64_t cache_capacity_bytes = 0;

  std::vector<ShardHealth> shards;

  /// Replication posture. Emitted only when this process runs a
  /// replication endpoint (same conditional convention as env_io/cache,
  /// so golden dumps of unreplicated deployments are unchanged).
  bool has_repl = false;
  bool repl_primary = false;          ///< ships batches (vs applies them)
  uint64_t repl_shipped_batches = 0;  ///< source side
  uint64_t repl_applied_batches = 0;  ///< applier side
  uint64_t repl_lag_bytes = 0;        ///< backlog at last cut/apply
  uint64_t repl_quarantined_shards = 0;

  /// Audit-transparency posture. Emitted only when this process runs a
  /// transparency service (same conditional convention as repl).
  bool has_transparency = false;
  uint64_t transparency_checkpoints = 0;  ///< published since start
  uint64_t transparency_cosigns = 0;
  uint64_t transparency_refusals = 0;     ///< witness refusals (tamper!)
  uint64_t transparency_witnesses = 0;
  uint64_t transparency_tampered_witnesses = 0;
  uint64_t transparency_inclusion_proofs = 0;
  uint64_t transparency_consistency_proofs = 0;
  uint64_t transparency_cache_hits = 0;
  uint64_t transparency_cache_misses = 0;
  uint64_t transparency_latest_sizes_sum = 0;  ///< sum over shards

  /// Patient-driven-sharing posture. Emitted only when the vault has
  /// seen any consent activity (same conditional convention as repl),
  /// so deployments without delegated sharing dump unchanged reports.
  bool has_consent = false;
  uint64_t consent_active = 0;     ///< live, unexpired grants right now
  uint64_t consent_granted = 0;    ///< grants issued since start
  uint64_t consent_revoked = 0;    ///< revocations (user + crypto-shred)
  uint64_t consent_exercised = 0;  ///< reads performed under a grant

  /// Deterministic JSON (sorted keys, integers only). Histograms are
  /// emitted as count/sum/max, p50/p90/p99 bucket upper bounds, and the
  /// non-empty buckets as [upper_bound, count] pairs.
  json::Value ToJson() const;
  std::string Dump() const { return ToJson().Dump(); }

  /// Group-commit Commit() calls in the metrics snapshot (ShardedVault's
  /// committer) — the denominator of env_io.fsyncs_per_op_milli.
  uint64_t CommitOps() const;
};

/// Health of one standalone vault: its registry's metrics, its cache
/// (when configured), and a single ShardHealth entry (shard 0).
/// Pass `io` when the vault's Env is wrapped in an InstrumentedEnv.
HealthReport CollectHealth(core::Vault& vault,
                           const storage::IoStats* io = nullptr);

/// Health of a sharded vault: shared-registry metrics, the shared read
/// cache, and one ShardHealth per shard.
HealthReport CollectHealth(core::ShardedVault& vault,
                           const storage::IoStats* io = nullptr);

/// Process-level health with no vault at hand (bench binaries after the
/// vaults under test have been destroyed): whatever accumulated in
/// `registry` (default: the process-wide registry) plus optional I/O
/// stats. `generated_at` is supplied by the caller.
HealthReport CollectProcessHealth(int64_t generated_at,
                                  MetricsRegistry* registry = nullptr,
                                  const storage::IoStats* io = nullptr);

/// Fills the conditional `repl` section from whichever replication
/// endpoints this process runs. Either pointer may be null; when both
/// are, the report is left untouched.
void FillReplicationHealth(HealthReport* report,
                           const core::ShardedReplicationSource* source,
                           const core::ShardedReplicaApplier* applier);

/// Fills the conditional `transparency` section. Null leaves the report
/// untouched.
void FillTransparencyHealth(HealthReport* report,
                            const core::ShardedTransparencyService* service);

/// Writes `report.Dump()` plus a trailing newline to `path` via `env`.
Status WriteHealthFile(storage::Env* env, const HealthReport& report,
                       const std::string& path);

/// Process-wide I/O tally for bench/tool Envs that want their traffic
/// in CollectProcessHealth reports. Never destroyed.
storage::IoStats* ProcessIoStats();

}  // namespace medvault::obs

#endif  // MEDVAULT_OBS_HEALTH_H_
