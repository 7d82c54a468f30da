#include "core/transparency.h"

#include <algorithm>

#include "common/coding.h"
#include "common/worker_pool.h"
#include "crypto/hkdf.h"
#include "crypto/merkle.h"

namespace medvault::core {

namespace {

/// Max memoized proofs of each kind (inclusion, consistency); the
/// oldest is evicted first.
constexpr size_t kProofCacheEntries = 4096;

}  // namespace

std::string WitnessCosignature::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, witness_id);
  PutLengthPrefixed(&out, signature);
  return out;
}

Result<WitnessCosignature> WitnessCosignature::Decode(const Slice& data) {
  Slice in = data;
  WitnessCosignature c;
  if (!GetLengthPrefixedString(&in, &c.witness_id) ||
      !GetLengthPrefixedString(&in, &c.signature) || !in.empty()) {
    return Status::Corruption("malformed witness cosignature");
  }
  return c;
}

std::string WitnessCosignPayload(const std::string& witness_id,
                                 const SignedCheckpoint& checkpoint) {
  std::string out = "medvault-witness-v1";
  PutLengthPrefixed(&out, witness_id);
  out.append(checkpoint.SignedPayload());
  return out;
}

// ---- Witness -------------------------------------------------------------

Witness::Witness(const Options& options, LogIdentity log)
    : id_(options.id),
      log_(std::move(log)),
      signer_(options.secret_seed, options.public_seed, options.height),
      last_root_(crypto::MerkleTree::EmptyRoot()) {}

Result<WitnessCosignature> Witness::Cosign(
    const SignedCheckpoint& checkpoint,
    const std::vector<std::string>& consistency_from_last) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tampered_) {
    return Status::TamperDetected("witness " + id_ +
                                  " refuses (sticky): " + tamper_evidence_);
  }
  auto taint = [this](const std::string& why) -> Status {
    tampered_ = true;
    tamper_evidence_ = why;
    return Status::TamperDetected("witness " + id_ + ": " + why);
  };

  Result<crypto::XmssSignature> log_sig =
      crypto::XmssSignature::Decode(checkpoint.signature);
  if (!log_sig.ok()) {
    return taint("malformed log signature on checkpoint at size " +
                 std::to_string(checkpoint.tree_size));
  }
  Status s = crypto::XmssSigner::Verify(checkpoint.SignedPayload(), *log_sig,
                                        log_.public_key, log_.public_seed,
                                        log_.height);
  if (!s.ok()) {
    return taint("log signature invalid at size " +
                 std::to_string(checkpoint.tree_size) + ": " + s.message());
  }
  if (checkpoint.tree_size < last_size_) {
    return taint("log shrank: saw size " + std::to_string(last_size_) +
                 ", offered size " + std::to_string(checkpoint.tree_size));
  }
  s = crypto::MerkleTree::VerifyConsistency(
      last_size_, last_root_, checkpoint.tree_size, checkpoint.root,
      consistency_from_last);
  if (!s.ok()) {
    return taint("inconsistent with last-seen checkpoint at size " +
                 std::to_string(last_size_) + ": " + s.message());
  }

  WitnessCosignature out;
  out.witness_id = id_;
  // A signing failure (leaf exhaustion) is an operational error, not
  // tamper evidence — return it without tainting.
  MEDVAULT_ASSIGN_OR_RETURN(
      crypto::XmssSignature sig,
      signer_.Sign(WitnessCosignPayload(id_, checkpoint)));
  out.signature = sig.Encode();
  last_size_ = checkpoint.tree_size;
  last_root_ = checkpoint.root;
  return out;
}

Status Witness::VerifyCosignature(const SignedCheckpoint& checkpoint,
                                  const WitnessCosignature& cosig,
                                  const Slice& witness_public_key,
                                  const Slice& witness_public_seed,
                                  int witness_height) {
  MEDVAULT_ASSIGN_OR_RETURN(crypto::XmssSignature sig,
                            crypto::XmssSignature::Decode(cosig.signature));
  return crypto::XmssSigner::Verify(
      WitnessCosignPayload(cosig.witness_id, checkpoint), sig,
      witness_public_key, witness_public_seed, witness_height);
}

uint64_t Witness::last_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_size_;
}

bool Witness::tampered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tampered_;
}

std::string Witness::tamper_evidence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tamper_evidence_;
}

// ---- TransparencyLog -----------------------------------------------------

TransparencyLog::TransparencyLog(Vault* vault, Options options)
    : vault_(vault), options_(options) {
  obs::MetricsRegistry* reg = vault_->metrics_registry();
  checkpoints_published_ = reg->GetCounter("audit.checkpoints");
  cosigns_ = reg->GetCounter("audit.witness.cosigns");
  refusals_ = reg->GetCounter("audit.witness.refusals");
  inclusion_proofs_ = reg->GetCounter("audit.proof.inclusion");
  consistency_proofs_ = reg->GetCounter("audit.proof.consistency");
  cache_hits_ = reg->GetCounter("audit.proof.cache_hits");
  cache_misses_ = reg->GetCounter("audit.proof.cache_misses");
  // Checkpoints survive restarts via audit-log replay; cosignatures do
  // not (they live with the witnesses), so a reopened log starts from
  // the bare latest checkpoint until the next publication.
  Result<SignedCheckpoint> latest = vault_->audit()->LatestCheckpoint();
  if (latest.ok()) {
    latest_.checkpoint = *latest;
    has_latest_ = true;
  }
}

void TransparencyLog::RegisterWitness(Witness* witness) {
  std::lock_guard<std::mutex> lock(state_mu_);
  witnesses_.push_back(witness);
}

size_t TransparencyLog::witness_count() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return witnesses_.size();
}

Result<CosignedCheckpoint> TransparencyLog::PublishCheckpoint() {
  // Serialized: witnesses must be offered checkpoint sizes in ascending
  // order or an interleaved publication would read as a fork.
  std::lock_guard<std::mutex> publish(publish_mu_);
  MEDVAULT_ASSIGN_OR_RETURN(SignedCheckpoint cp, vault_->CheckpointAudit());
  checkpoints_published_->Increment();

  std::vector<Witness*> witnesses;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    witnesses = witnesses_;
  }
  CosignedCheckpoint out;
  out.checkpoint = cp;
  for (Witness* w : witnesses) {
    Result<std::vector<std::string>> proof =
        vault_->audit()->ConsistencyProofBetween(w->last_size(),
                                                 cp.tree_size);
    if (!proof.ok()) {
      refusals_->Increment();
      continue;
    }
    Result<WitnessCosignature> cosig = w->Cosign(cp, *proof);
    if (!cosig.ok()) {
      refusals_->Increment();
      continue;
    }
    cosigns_->Increment();
    out.cosignatures.push_back(std::move(*cosig));
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    latest_ = out;
    has_latest_ = true;
  }
  return out;
}

Status TransparencyLog::MaybeCheckpoint() {
  uint64_t size = vault_->audit()->size();
  if (size == 0) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (has_latest_ &&
        size < latest_.checkpoint.tree_size + options_.checkpoint_interval) {
      return Status::OK();
    }
  }
  return PublishCheckpoint().status();
}

Result<CosignedCheckpoint> TransparencyLog::LatestCosigned() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!has_latest_) return Status::NotFound("no checkpoint published");
  return latest_;
}

Result<EventProof> TransparencyLog::ProveEventAt(uint64_t seq,
                                                 uint64_t tree_size) {
  inclusion_proofs_->Increment();
  // Only published sizes: a proof against a root nobody holds a signed
  // statement for proves nothing.
  MEDVAULT_RETURN_IF_ERROR(vault_->audit()->CheckpointAt(tree_size).status());
  const std::pair<uint64_t, uint64_t> key{seq, tree_size};
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = inclusion_cache_.find(key);
    if (it != inclusion_cache_.end()) {
      cache_hits_->Increment();
      return it->second;
    }
  }
  cache_misses_->Increment();
  MEDVAULT_ASSIGN_OR_RETURN(EventProof proof,
                            vault_->audit()->ProveEventAt(seq, tree_size));
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (inclusion_cache_.emplace(key, proof).second) {
      inclusion_fifo_.push_back(key);
      if (inclusion_fifo_.size() > kProofCacheEntries) {
        inclusion_cache_.erase(inclusion_fifo_.front());
        inclusion_fifo_.pop_front();
      }
    }
  }
  return proof;
}

Result<ConsistencyBundle> TransparencyLog::ConsistencyBetween(
    uint64_t old_size, uint64_t new_size) {
  consistency_proofs_->Increment();
  if (old_size > new_size) {
    return Status::InvalidArgument("old size exceeds new size");
  }
  ConsistencyBundle bundle;
  MEDVAULT_ASSIGN_OR_RETURN(bundle.from,
                            vault_->audit()->CheckpointAt(old_size));
  MEDVAULT_ASSIGN_OR_RETURN(bundle.to,
                            vault_->audit()->CheckpointAt(new_size));
  const std::pair<uint64_t, uint64_t> key{old_size, new_size};
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = consistency_cache_.find(key);
    if (it != consistency_cache_.end()) {
      cache_hits_->Increment();
      bundle.proof = it->second;
      return bundle;
    }
  }
  cache_misses_->Increment();
  MEDVAULT_ASSIGN_OR_RETURN(
      bundle.proof,
      vault_->audit()->ConsistencyProofBetween(old_size, new_size));
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (consistency_cache_.emplace(key, bundle.proof).second) {
      consistency_fifo_.push_back(key);
      if (consistency_fifo_.size() > kProofCacheEntries) {
        consistency_cache_.erase(consistency_fifo_.front());
        consistency_fifo_.pop_front();
      }
    }
  }
  return bundle;
}

// ---- ShardedTransparencyService ------------------------------------------

ShardedTransparencyService::ShardedTransparencyService(ShardedVault* vault,
                                                       Options options)
    : vault_(vault), options_(options) {
  logs_.resize(vault_->num_shards());
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    Vault* shard = vault_->shard(k);
    if (shard == nullptr) continue;  // quarantined
    TransparencyLog::Options log_options;
    log_options.checkpoint_interval = options_.checkpoint_interval;
    logs_[k] = std::make_unique<TransparencyLog>(shard, log_options);
  }
}

Status ShardedTransparencyService::AddWitness(const std::string& id,
                                              const Slice& secret_seed,
                                              const Slice& public_seed) {
  // XMSS keys are stateful one-time-leaf material: a logical witness
  // gets an independent key per shard instead of spending one tree's
  // leaves across all of them. Each shard's key generation (2^height
  // WOTS leaves) is one pool task; registration stays in shard order.
  std::vector<std::unique_ptr<Witness>> built(logs_.size());
  MEDVAULT_RETURN_IF_ERROR(
      vault_->pool()->RunEach(logs_.size(), [&](size_t k) -> Status {
        if (logs_[k] == nullptr) return Status::OK();  // quarantined
        Vault* shard = vault_->shard(static_cast<uint32_t>(k));
        Witness::Options wopts;
        wopts.id = id;
        MEDVAULT_ASSIGN_OR_RETURN(
            wopts.secret_seed,
            crypto::HkdfSha256(
                secret_seed, Slice(),
                "witness-" + id + "-secret-" + std::to_string(k), 32));
        MEDVAULT_ASSIGN_OR_RETURN(
            wopts.public_seed,
            crypto::HkdfSha256(
                public_seed, Slice(),
                "witness-" + id + "-public-" + std::to_string(k), 32));
        wopts.height = options_.witness_height;
        LogIdentity log_id{shard->SignerPublicKey(),
                           shard->SignerPublicSeed(), shard->SignerHeight()};
        built[k] = std::make_unique<Witness>(wopts, std::move(log_id));
        return Status::OK();
      }));
  for (size_t k = 0; k < built.size(); ++k) {
    if (built[k] == nullptr) continue;
    logs_[k]->RegisterWitness(built[k].get());
    witnesses_.push_back(std::move(built[k]));
  }
  return Status::OK();
}

Status ShardedTransparencyService::PublishAll() {
  for (auto& log : logs_) {
    if (log == nullptr) continue;
    MEDVAULT_RETURN_IF_ERROR(log->PublishCheckpoint().status());
  }
  return Status::OK();
}

Status ShardedTransparencyService::MaybeCheckpointAll() {
  for (auto& log : logs_) {
    if (log == nullptr) continue;
    MEDVAULT_RETURN_IF_ERROR(log->MaybeCheckpoint());
  }
  return Status::OK();
}

Result<TransparencyLog*> ShardedTransparencyService::log(
    uint32_t shard) const {
  if (shard >= logs_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  if (logs_[shard] == nullptr) {
    return Status::Unavailable("shard quarantined: " +
                               vault_->QuarantineReason(shard));
  }
  return logs_[shard].get();
}

Result<CosignedCheckpoint> ShardedTransparencyService::LatestCosigned(
    uint32_t shard) const {
  MEDVAULT_ASSIGN_OR_RETURN(TransparencyLog * l, log(shard));
  return l->LatestCosigned();
}

Result<EventProof> ShardedTransparencyService::ProveEventAt(
    uint32_t shard, uint64_t seq, uint64_t tree_size) {
  MEDVAULT_ASSIGN_OR_RETURN(TransparencyLog * l, log(shard));
  return l->ProveEventAt(seq, tree_size);
}

Result<ConsistencyBundle> ShardedTransparencyService::ConsistencyBetween(
    uint32_t shard, uint64_t old_size, uint64_t new_size) {
  MEDVAULT_ASSIGN_OR_RETURN(TransparencyLog * l, log(shard));
  return l->ConsistencyBetween(old_size, new_size);
}

size_t ShardedTransparencyService::witness_count() const {
  return witnesses_.size();
}

ShardedTransparencyService::Stats ShardedTransparencyService::CollectStats()
    const {
  Stats stats;
  obs::MetricsRegistry* reg = vault_->metrics_registry();
  stats.checkpoints_published = reg->GetCounter("audit.checkpoints")->Value();
  stats.cosigns = reg->GetCounter("audit.witness.cosigns")->Value();
  stats.refusals = reg->GetCounter("audit.witness.refusals")->Value();
  stats.inclusion_proofs = reg->GetCounter("audit.proof.inclusion")->Value();
  stats.consistency_proofs =
      reg->GetCounter("audit.proof.consistency")->Value();
  stats.cache_hits = reg->GetCounter("audit.proof.cache_hits")->Value();
  stats.cache_misses = reg->GetCounter("audit.proof.cache_misses")->Value();
  stats.witnesses = witnesses_.size();
  for (const auto& w : witnesses_) {
    if (w->tampered()) stats.tampered_witnesses++;
  }
  for (const auto& log : logs_) {
    if (log == nullptr) continue;
    Result<CosignedCheckpoint> latest = log->LatestCosigned();
    if (latest.ok()) stats.latest_sizes_sum += latest->checkpoint.tree_size;
  }
  return stats;
}

}  // namespace medvault::core
