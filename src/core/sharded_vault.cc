#include "core/sharded_vault.h"

#include <iterator>
#include <utility>

#include "core/scrub.h"
#include "common/worker_pool.h"
#include "crypto/merkle.h"

namespace medvault::core {

namespace {

/// Byte budget of the shared authenticated read cache: 4 MiB.
constexpr size_t kCacheBytes = 4u << 20;

/// Appends one shard's part of a merged listing, in shard order.
template <typename T>
Status Append(Result<std::vector<T>> part, std::vector<T>* merged) {
  MEDVAULT_RETURN_IF_ERROR(part.status());
  merged->insert(merged->end(), std::make_move_iterator(part->begin()),
                 std::make_move_iterator(part->end()));
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Open / Init
// ---------------------------------------------------------------------------

ShardedVault::ShardedVault(ShardedVaultOptions options)
    : options_(std::move(options)), router_(options_.num_shards) {}

ShardedVault::~ShardedVault() = default;

Result<std::unique_ptr<ShardedVault>> ShardedVault::Open(
    const ShardedVaultOptions& options) {
  if (options.env == nullptr || options.clock == nullptr) {
    return Status::InvalidArgument("env and clock are required");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("dir is required");
  }
  if (options.master_key.size() != 32) {
    return Status::InvalidArgument("master_key must be 32 bytes");
  }
  if (options.entropy.empty()) {
    return Status::InvalidArgument("entropy is required");
  }
  if (options.num_shards < 1 || options.num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be in [1, 1024]");
  }
  auto vault =
      std::unique_ptr<ShardedVault>(new ShardedVault(options));
  MEDVAULT_RETURN_IF_ERROR(vault->Init());
  return vault;
}

Status ShardedVault::Init() {
  storage::Env* env = options_.env;

  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : obs::MetricsRegistry::Default();
  op_metrics_ = obs::VaultOpMetrics::For(metrics_, "sharded");

  MEDVAULT_RETURN_IF_ERROR(ShardRouter::CheckOrCreateManifest(
      env, options_.dir, options_.num_shards));

  cache_ = std::make_unique<RecordCache>(kCacheBytes);
  pool_ = WorkerPool::ForFanOut(options_.ingest_threads, options_.num_shards);

  // Shards recover independently, so each shard's scrub-then-open is one
  // task on the pool; a task touches only its own slot. A failed strict
  // open still lets the other shards finish opening (as a parallel open
  // would) before the lowest-index error is returned.
  shards_.resize(options_.num_shards);
  quarantine_reasons_.resize(options_.num_shards);
  const bool degraded = options_.open_mode == OpenMode::kDegraded;
  obs::Histogram* open_scrub = metrics_->GetHistogram("vault.open.scrub");
  MEDVAULT_RETURN_IF_ERROR(pool_->RunEach(num_shards(), [&](size_t k) {
    // Scrub before a degraded open. Vault::Open tolerates torn tails and
    // does not deep-verify, so a shard with a flipped segment byte would
    // "open" and then fail clinical reads; the structural scan spots
    // the damage up front without mutating the directory. A NotFound
    // scrub means a fresh shard directory — open will create it.
    if (degraded) {
      Result<ScrubReport> scrub = [&] {
        obs::ScopedOpTimer timer(metrics_, open_scrub, "vault.open.scrub");
        return Scrubber::ScrubVaultDir(env, ShardDirPath(k), Now());
      }();
      if (!scrub.ok() && !scrub.status().IsNotFound()) {
        quarantine_reasons_[k] = "scrub failed: " + scrub.status().ToString();
        return Status::OK();
      }
      if (scrub.ok() && !scrub->structurally_clean()) {
        std::string reason = "failed structural scrub: " +
                             std::to_string(scrub->corrupt_files) +
                             " damaged file(s)";
        const auto damaged = scrub->DamagedFiles();
        if (!damaged.empty()) reason += ", first: " + damaged[0];
        quarantine_reasons_[k] = std::move(reason);
        return Status::OK();
      }
    }
    Result<std::unique_ptr<Vault>> shard = OpenShard(k);
    if (shard.ok()) {
      shards_[k] = std::move(*shard);
    } else if (degraded) {
      quarantine_reasons_[k] = "open failed: " + shard.status().ToString();
    } else {
      return Status::WithContext(shard.status(), "shard " + std::to_string(k));
    }
    return Status::OK();
  }));
  PublishQuarantineGauge();

  GroupCommitter::Options commit_options;
  commit_options.window_micros = options_.commit_window_micros;
  commit_options.metrics = metrics_;
  committer_ = std::make_unique<GroupCommitter>(
      [this] { return SyncShardsWave(); }, std::move(commit_options));
  return Status::OK();
}

Status ShardedVault::SyncShardsWave() {
  // One wave: the wave completes when the slowest shard lands.
  return pool_->RunEach(num_shards(), [this](size_t k) {
    Vault* s = shard(k);  // quarantined: nothing mounted to sync
    return s == nullptr ? Status::OK() : s->SyncAll();
  });
}

Result<std::unique_ptr<Vault>> ShardedVault::OpenShard(uint32_t k) {
  VaultOptions shard_options;
  MEDVAULT_ASSIGN_OR_RETURN(
      shard_options.master_key,
      ShardRouter::ShardMasterKey(options_.master_key, k));
  MEDVAULT_ASSIGN_OR_RETURN(shard_options.entropy,
                            ShardRouter::ShardEntropy(options_.entropy, k));
  shard_options.env = options_.env;
  shard_options.dir = ShardRouter::ShardDir(options_.dir, k);
  shard_options.clock = options_.clock;
  shard_options.signer_height = options_.signer_height;
  shard_options.system_id = options_.system_id + "/shard-" + std::to_string(k);
  shard_options.require_dual_disposal = options_.require_dual_disposal;
  shard_options.record_id_prefix = ShardRouter::RecordIdPrefix(k);
  shard_options.consent_id_prefix = ShardRouter::ConsentIdPrefix(k);
  shard_options.cache = cache_.get();
  shard_options.metrics = metrics_;
  return Vault::Open(shard_options);
}

Result<Vault*> ShardedVault::RequireShard(uint32_t k) const {
  std::shared_lock lock(shards_mu_);
  Vault* s = shards_[k].get();
  if (s != nullptr) return s;
  return Status::Unavailable("shard " + std::to_string(k) +
                             " is quarantined: " + quarantine_reasons_[k]);
}

bool ShardedVault::IsQuarantined(uint32_t k) const {
  std::shared_lock lock(shards_mu_);
  return shards_[k] == nullptr;
}

std::string ShardedVault::QuarantineReason(uint32_t k) const {
  std::shared_lock lock(shards_mu_);
  return quarantine_reasons_[k];
}

std::vector<uint32_t> ShardedVault::QuarantinedShards() const {
  std::shared_lock lock(shards_mu_);
  std::vector<uint32_t> out;
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    if (shards_[k] == nullptr) out.push_back(k);
  }
  return out;
}

std::string ShardedVault::ShardDirPath(uint32_t k) const {
  return ShardRouter::ShardDir(options_.dir, k);
}

void ShardedVault::PublishQuarantineGauge() const {
  std::shared_lock lock(shards_mu_);
  int64_t quarantined = 0;
  for (const auto& s : shards_) {
    if (s == nullptr) quarantined++;
  }
  metrics_->GetGauge("sharded.quarantined")->Set(quarantined);
}

Result<ScrubReport> ShardedVault::ScrubShard(uint32_t k) {
  if (k >= num_shards()) {
    return Status::InvalidArgument("no such shard: " + std::to_string(k));
  }
  Vault* s = shard(k);
  if (s != nullptr) return s->Scrub();
  // Quarantined: the shard is not open, so only the offline structural
  // scan is possible — which is all repair needs.
  return Scrubber::ScrubVaultDir(options_.env, ShardDirPath(k), Now());
}

Status ShardedVault::RejoinShard(uint32_t k) {
  if (k >= num_shards()) {
    return Status::InvalidArgument("no such shard: " + std::to_string(k));
  }
  if (shard(k) != nullptr) return Status::OK();  // already healthy

  // Gate on a clean structural scrub so a rejoin cannot re-admit the
  // damage that caused the quarantine.
  MEDVAULT_ASSIGN_OR_RETURN(
      ScrubReport report,
      Scrubber::ScrubVaultDir(options_.env, ShardDirPath(k), Now()));
  if (!report.structurally_clean()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(k) + " is still damaged; repair first (" +
        std::to_string(report.corrupt_files) + " damaged file(s))");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::unique_ptr<Vault> opened, OpenShard(k));
  MEDVAULT_RETURN_IF_ERROR(opened->VerifyEverything());
  {
    std::unique_lock lock(shards_mu_);
    if (shards_[k] != nullptr) return Status::OK();  // lost a rejoin race
    shards_[k] = std::move(opened);
    quarantine_reasons_[k].clear();
  }
  metrics_->GetCounter("sharded.rejoined")->Increment();
  PublishQuarantineGauge();
  return Status::OK();
}

template <typename Fn>
Status ShardedVault::ForEachHealthyShard(Fn&& fn) const {
  for (uint32_t k = 0; k < num_shards(); ++k) {
    Result<Vault*> s = RequireShard(k);
    if (s.ok()) MEDVAULT_RETURN_IF_ERROR(fn(*s));
  }
  return Status::OK();
}

Result<Vault*> ShardedVault::RecordShard(const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(uint32_t k, RouteRecordId(record_id));
  return RequireShard(k);
}

Result<uint32_t> ShardedVault::RouteRecordId(const RecordId& record_id) const {
  uint32_t shard = 0;
  if (!ShardRouter::ShardOfRecordId(record_id, &shard) ||
      shard >= num_shards()) {
    return Status::NotFound("record not found: '" + record_id +
                            "' does not name a shard of this vault");
  }
  return shard;
}

// ---------------------------------------------------------------------------
// Administration
// ---------------------------------------------------------------------------

Status ShardedVault::RegisterPrincipal(const PrincipalId& actor,
                                       const Principal& principal) {
  // Replication must CONVERGE, not merely fan out: after a crash some
  // shards may already hold the principal while others lost it, so a
  // shard's AlreadyExists is success for that shard and the loop keeps
  // going — otherwise the divergent shards could never be repaired.
  // Quarantined shards are skipped; RejoinShard documents that admin
  // state must be re-replicated after a repair.
  return ForEachHealthyShard([&](Vault* s) {
    Status status = s->RegisterPrincipal(actor, principal);
    return status.IsAlreadyExists() ? Status::OK() : status;
  });
}

Status ShardedVault::AssignCare(const PrincipalId& actor,
                                const PrincipalId& clinician,
                                const PrincipalId& patient) {
  return ForEachHealthyShard(
      [&](Vault* s) { return s->AssignCare(actor, clinician, patient); });
}

Result<std::string> ShardedVault::BreakGlass(const PrincipalId& clinician,
                                             const PrincipalId& patient,
                                             const std::string& justification,
                                             Timestamp duration) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s,
                            RequireShard(router_.ShardOf(patient)));
  return s->BreakGlass(clinician, patient, justification, duration);
}

// ---------------------------------------------------------------------------
// Patient-driven sharing
// ---------------------------------------------------------------------------

Result<ConsentGrant> ShardedVault::GrantConsent(const PrincipalId& actor,
                                                const PrincipalId& grantee,
                                                const RecordId& record_id,
                                                const std::string& purpose,
                                                Timestamp duration) {
  // A grant lives on its granting patient's shard — the same shard as
  // every record it can cover (records are placed by patient id), so
  // the shard-local registry sees all relevant grants. A record-scoped
  // grant id must agree with the actor's shard, or the registry could
  // never match it against a read routed by record id.
  const uint32_t k = router_.ShardOf(actor);
  if (!record_id.empty()) {
    MEDVAULT_ASSIGN_OR_RETURN(uint32_t rk, RouteRecordId(record_id));
    if (rk != k) {
      return Status::PermissionDenied(
          "patients may share only their own records");
    }
  }
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RequireShard(k));
  return s->GrantConsent(actor, grantee, record_id, purpose, duration);
}

Status ShardedVault::RevokeConsent(const PrincipalId& actor,
                                   const std::string& grant_id) {
  // Grant ids embed their shard ("s<k>-cg-<n>") — route by id alone.
  uint32_t k = 0;
  if (!ShardRouter::ShardOfConsentId(grant_id, &k) || k >= num_shards()) {
    return Status::NotFound("no such consent grant: " + grant_id);
  }
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RequireShard(k));
  return s->RevokeConsent(actor, grant_id);
}

Result<std::vector<ConsentGrant>> ShardedVault::ListConsents(
    const PrincipalId& actor, const PrincipalId& patient) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s,
                            RequireShard(router_.ShardOf(patient)));
  return s->ListConsents(actor, patient);
}

size_t ShardedVault::ActiveConsentCount() const {
  size_t total = 0;
  (void)ForEachHealthyShard([&](const Vault* s) {
    total += s->ActiveConsentCount();
    return Status::OK();
  });
  return total;
}

// ---------------------------------------------------------------------------
// Record lifecycle
// ---------------------------------------------------------------------------

Result<RecordId> ShardedVault::CreateRecord(
    const PrincipalId& actor, const PrincipalId& patient_id,
    const std::string& content_type, const Slice& plaintext,
    const std::vector<std::string>& keywords,
    const std::string& retention_policy) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.create, "sharded.create");
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s,
                            RequireShard(router_.ShardOf(patient_id)));
  return s->CreateRecord(actor, patient_id, content_type, plaintext, keywords,
                         retention_policy);
}

Result<std::vector<RecordId>> ShardedVault::CreateRecordsBatch(
    const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.batch_ingest,
                           "sharded.batch_ingest");
  if (batch.empty()) {
    return Status::InvalidArgument("batch is empty");
  }
  const uint32_t n = num_shards();
  if (n == 1) {
    MEDVAULT_ASSIGN_OR_RETURN(Vault * only, RequireShard(0));
    return only->CreateRecordsBatch(actor, batch);
  }

  // Partition by patient shard, remembering each item's original index
  // so the merged id vector lines up with the input order.
  std::vector<std::vector<size_t>> indices(n);
  for (size_t i = 0; i < batch.size(); ++i) {
    indices[router_.ShardOf(batch[i].patient_id)].push_back(i);
  }

  std::vector<std::vector<RecordId>> ids(n);
  // Refuse the whole batch up front if any involved shard is
  // quarantined: a partial cross-shard ingest that can never complete
  // is worse than a clean failure the caller can re-route.
  std::vector<Vault*> involved(n, nullptr);
  for (uint32_t k = 0; k < n; ++k) {
    if (indices[k].empty()) continue;
    MEDVAULT_ASSIGN_OR_RETURN(involved[k], RequireShard(k));
  }
  MEDVAULT_RETURN_IF_ERROR(pool_->RunEach(n, [&](size_t k) -> Status {
    if (involved[k] == nullptr) return Status::OK();
    std::vector<Vault::NewRecord> sub;
    sub.reserve(indices[k].size());
    for (size_t i : indices[k]) sub.push_back(batch[i]);
    MEDVAULT_ASSIGN_OR_RETURN(ids[k],
                              involved[k]->CreateRecordsBatch(actor, sub));
    return Status::OK();
  }));
  std::vector<RecordId> merged(batch.size());
  for (uint32_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < indices[k].size(); ++j) {
      merged[indices[k][j]] = std::move(ids[k][j]);
    }
  }
  return merged;
}

Result<RecordVersion> ShardedVault::ReadRecordAt(
    const PrincipalId& actor, const RecordId& record_id,
    std::optional<uint32_t> version) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.read, "sharded.read");
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return version ? s->ReadRecordVersion(actor, record_id, *version)
                 : s->ReadRecord(actor, record_id);
}

Result<VersionHeader> ShardedVault::CorrectRecord(
    const PrincipalId& actor, const RecordId& record_id,
    const Slice& new_plaintext, const std::string& reason,
    const std::vector<std::string>& keywords) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.correct, "sharded.correct");
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->CorrectRecord(actor, record_id, new_plaintext, reason, keywords);
}

Result<std::vector<RecordId>> ShardedVault::SearchKeyword(
    const PrincipalId& actor, const std::string& term) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "sharded.search");
  // Degraded semantics: quarantined shards are skipped, so results may
  // be partial until every shard rejoins — the price of availability.
  std::vector<RecordId> merged;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) {
    return Append(s->SearchKeyword(actor, term), &merged);
  }));
  return merged;
}

Result<std::vector<RecordId>> ShardedVault::SearchKeywordsAll(
    const PrincipalId& actor, const std::vector<std::string>& terms) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "sharded.search");
  std::vector<RecordId> merged;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) {
    return Append(s->SearchKeywordsAll(actor, terms), &merged);
  }));
  return merged;
}

Result<std::vector<VersionHeader>> ShardedVault::RecordHistory(
    const PrincipalId& actor, const RecordId& record_id) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->RecordHistory(actor, record_id);
}

Result<DisposalCertificate> ShardedVault::DisposeRecord(
    const PrincipalId& actor, const RecordId& record_id) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.dispose, "sharded.dispose");
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->DisposeRecord(actor, record_id);
}

Result<std::vector<RecordMeta>> ShardedVault::ListExpiredRecords(
    const PrincipalId& actor) {
  std::vector<RecordMeta> merged;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) {
    return Append(s->ListExpiredRecords(actor), &merged);
  }));
  return merged;
}

Result<int> ShardedVault::ReclaimDisposedMedia(const PrincipalId& actor) {
  int total = 0;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) -> Status {
    MEDVAULT_ASSIGN_OR_RETURN(int reclaimed, s->ReclaimDisposedMedia(actor));
    total += reclaimed;
    return Status::OK();
  }));
  return total;
}

Status ShardedVault::PlaceLegalHold(const PrincipalId& actor,
                                    const RecordId& record_id,
                                    const std::string& reason) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->PlaceLegalHold(actor, record_id, reason);
}

Status ShardedVault::ReleaseLegalHold(const PrincipalId& actor,
                                      const RecordId& record_id,
                                      const std::string& reason) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->ReleaseLegalHold(actor, record_id, reason);
}

Result<std::string> ShardedVault::RequestDisposal(const PrincipalId& actor,
                                                  const RecordId& record_id) {
  MEDVAULT_ASSIGN_OR_RETURN(uint32_t k, RouteRecordId(record_id));
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RequireShard(k));
  MEDVAULT_ASSIGN_OR_RETURN(std::string request_id,
                            s->RequestDisposal(actor, record_id));
  return ShardRouter::QualifyDisposalRequest(k, request_id);
}

Result<DisposalCertificate> ShardedVault::ApproveDisposal(
    const PrincipalId& actor, const std::string& request_id) {
  uint32_t k = 0;
  std::string local_id;
  if (!ShardRouter::ShardOfDisposalRequest(request_id, &k, &local_id) ||
      k >= num_shards()) {
    return Status::NotFound("unknown disposal request: " + request_id);
  }
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RequireShard(k));
  return s->ApproveDisposal(actor, local_id);
}

Status ShardedVault::SyncAll() {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.sync, "sharded.sync");
  return committer_->Commit();
}

Result<std::vector<RecordId>> ShardedVault::CreateRecordsBatchDurable(
    const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch) {
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                            CreateRecordsBatch(actor, batch));
  // One cross-shard wave acknowledges the whole batch; concurrent
  // durable batches ride the same wave when their windows overlap.
  MEDVAULT_RETURN_IF_ERROR(committer_->Commit());
  return ids;
}

// ---------------------------------------------------------------------------
// Audit & custody
// ---------------------------------------------------------------------------

Result<std::vector<SignedCheckpoint>> ShardedVault::CheckpointAudit() {
  std::vector<SignedCheckpoint> checkpoints;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) -> Status {
    MEDVAULT_ASSIGN_OR_RETURN(SignedCheckpoint checkpoint,
                              s->CheckpointAudit());
    checkpoints.push_back(std::move(checkpoint));
    return Status::OK();
  }));
  return checkpoints;
}

Status ShardedVault::VerifyAudit() const {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "sharded.verify");
  return ForEachHealthyShard([](const Vault* s) { return s->VerifyAudit(); });
}

Result<std::vector<AuditEvent>> ShardedVault::ReadAuditTrail(
    const PrincipalId& actor, const RecordId& record_id) {
  if (!record_id.empty()) {
    MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
    return s->ReadAuditTrail(actor, record_id);
  }
  std::vector<AuditEvent> merged;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) {
    return Append(s->ReadAuditTrail(actor, record_id), &merged);
  }));
  return merged;
}

Result<std::vector<CustodyEvent>> ShardedVault::GetCustodyChain(
    const PrincipalId& actor, const RecordId& record_id) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->GetCustodyChain(actor, record_id);
}

Result<std::vector<AuditEvent>> ShardedVault::AccountingOfDisclosures(
    const PrincipalId& actor, const PrincipalId& patient_id) {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s,
                            RequireShard(router_.ShardOf(patient_id)));
  return s->AccountingOfDisclosures(actor, patient_id);
}

Result<std::vector<AuditEvent>> ShardedVault::ListBreakGlassEvents(
    const PrincipalId& actor) {
  std::vector<AuditEvent> merged;
  MEDVAULT_RETURN_IF_ERROR(ForEachHealthyShard([&](Vault* s) {
    return Append(s->ListBreakGlassEvents(actor), &merged);
  }));
  return merged;
}

// ---------------------------------------------------------------------------
// Verification & introspection
// ---------------------------------------------------------------------------

Status ShardedVault::VerifyRecord(const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->VerifyRecord(record_id);
}

Status ShardedVault::VerifyEverything() const {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "sharded.verify");
  // Verifies what is serving: quarantined shards are skipped (their
  // damage is already known and tracked; verify them via ScrubShard).
  return pool_->RunEach(num_shards(), [this](size_t k) {
    const Vault* s = shard(k);
    return s == nullptr ? Status::OK() : s->VerifyEverything();
  });
}

std::string ShardedVault::ContentRoot() const {
  // NOTE: quarantined shards contribute nothing, so a degraded root is
  // only comparable against another vault with the same quarantine set.
  crypto::MerkleTree tree(/*memoize=*/false);
  (void)ForEachHealthyShard([&](const Vault* s) {
    tree.Append(s->ContentRoot());
    return Status::OK();
  });
  return tree.Root();
}

Result<RecordMeta> ShardedVault::GetRecordMeta(
    const RecordId& record_id) const {
  MEDVAULT_ASSIGN_OR_RETURN(Vault * s, RecordShard(record_id));
  return s->GetRecordMeta(record_id);
}

std::vector<RecordId> ShardedVault::ListRecordIds() const {
  std::vector<RecordId> merged;
  (void)ForEachHealthyShard([&](const Vault* s) {
    return Append<RecordId>(s->ListRecordIds(), &merged);
  });
  return merged;
}

Status ShardedVault::RotateMasterKey(const PrincipalId& actor,
                                     const Slice& new_master_key) {
  if (new_master_key.size() != 32) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  // Rotation must reach EVERY shard or none: a quarantined shard would
  // silently stay on the old master and fail to open after rejoin, so
  // any quarantined shard refuses the rotation before a shard rotates.
  std::vector<Vault*> shards(num_shards());
  for (uint32_t k = 0; k < num_shards(); ++k) {
    MEDVAULT_ASSIGN_OR_RETURN(shards[k], RequireShard(k));
  }
  for (uint32_t k = 0; k < num_shards(); ++k) {
    MEDVAULT_ASSIGN_OR_RETURN(std::string shard_master,
                              ShardRouter::ShardMasterKey(new_master_key, k));
    MEDVAULT_RETURN_IF_ERROR(shards[k]->RotateMasterKey(actor, shard_master));
  }
  return Status::OK();
}

RecordCache::Stats ShardedVault::CacheStats() const {
  return cache_->stats();
}

}  // namespace medvault::core
