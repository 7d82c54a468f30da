#ifndef MEDVAULT_CORE_TRANSPARENCY_H_
#define MEDVAULT_CORE_TRANSPARENCY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/audit.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "crypto/xmss.h"
#include "obs/metrics.h"

namespace medvault::core {

/// Audit transparency: the machinery that lets parties *outside* the
/// vault's trust boundary check the audit log, VAMS-style. The vault
/// signs periodic checkpoints of its Merkle-committed audit log;
/// independent witnesses verify each new checkpoint is an append-only
/// extension of the last one they saw (a consistency proof — no log
/// replay) before countersigning it; patients and auditors then verify
/// inclusion proofs for individual events against any cosigned
/// checkpoint they trust. A vault that ever forks or truncates its log
/// cannot produce a consistency proof to its own witnesses, and the
/// refusal is sticky evidence.

/// One witness's countersignature over a log checkpoint.
struct WitnessCosignature {
  std::string witness_id;
  std::string signature;  ///< crypto::XmssSignature::Encode()

  std::string Encode() const;
  static Result<WitnessCosignature> Decode(const Slice& data);
};

/// The byte string a witness signs: domain-separated and bound to the
/// witness id, so a cosignature cannot be replayed as the log's own
/// signature or attributed to a different witness.
std::string WitnessCosignPayload(const std::string& witness_id,
                                 const SignedCheckpoint& checkpoint);

/// A checkpoint plus every countersignature gathered for it.
struct CosignedCheckpoint {
  SignedCheckpoint checkpoint;
  std::vector<WitnessCosignature> cosignatures;
};

/// Verification identity of the log a witness watches.
struct LogIdentity {
  std::string public_key;
  std::string public_seed;
  int height = 8;
};

/// An independent cosigner of log checkpoints. The witness holds its
/// own XMSS key and the log's verification identity; per checkpoint it
/// checks (1) the log's signature and (2) a Merkle consistency proof
/// from the last checkpoint it countersigned, then signs. Any failure
/// — bad signature, shrinking tree, root divergence — trips *sticky*
/// tamper evidence: the witness refuses everything from then on, so a
/// fork shown to a witness is never silently forgotten.
///
/// Thread safety: all methods serialize on an internal mutex; a
/// Witness may be shared by concurrent checkpoint publishers.
class Witness {
 public:
  struct Options {
    std::string id;
    std::string secret_seed;  ///< 32 bytes, witness's own XMSS secret
    std::string public_seed;
    int height = 8;  ///< 2^height cosignatures available
  };

  Witness(const Options& options, LogIdentity log);

  Witness(const Witness&) = delete;
  Witness& operator=(const Witness&) = delete;

  /// Verifies `checkpoint` against the log identity and
  /// `consistency_from_last` against the witness's last-seen
  /// (size, root), then countersigns and advances last-seen. The very
  /// first checkpoint needs no proof (anything extends the empty tree).
  /// On verification failure returns kTamperDetected and becomes
  /// permanently tainted (see tampered()).
  Result<WitnessCosignature> Cosign(
      const SignedCheckpoint& checkpoint,
      const std::vector<std::string>& consistency_from_last);

  /// Stateless verification of a cosignature against a witness's
  /// public identity.
  static Status VerifyCosignature(const SignedCheckpoint& checkpoint,
                                  const WitnessCosignature& cosig,
                                  const Slice& witness_public_key,
                                  const Slice& witness_public_seed,
                                  int witness_height);

  const std::string& id() const { return id_; }
  const std::string& public_key() const { return signer_.public_key(); }
  const std::string& public_seed() const { return signer_.public_seed(); }
  int height() const { return signer_.height(); }

  /// Size of the last checkpoint this witness countersigned.
  uint64_t last_size() const;

  /// Once true, every future Cosign is refused with kTamperDetected.
  bool tampered() const;
  /// What tripped the taint ("" while clean).
  std::string tamper_evidence() const;

 private:
  const std::string id_;
  const LogIdentity log_;
  mutable std::mutex mu_;
  crypto::XmssSigner signer_;  // guarded by mu_ (stateful)
  uint64_t last_size_ = 0;     // guarded by mu_
  std::string last_root_;      // guarded by mu_
  bool tampered_ = false;      // guarded by mu_
  std::string tamper_evidence_;  // guarded by mu_
};

/// A consistency proof between two published checkpoints, packaged with
/// both endpoints so a verifier needs nothing else.
struct ConsistencyBundle {
  SignedCheckpoint from;
  SignedCheckpoint to;
  std::vector<std::string> proof;
};

/// The transparency face of one vault (one shard): publishes
/// witnessed checkpoints of its audit log and serves inclusion /
/// consistency proofs against *published* checkpoint sizes only — the
/// sizes external verifiers can actually hold a signed root for.
///
/// Proofs are memoized in a bounded FIFO cache. Cached entries are
/// immutable by construction: the audit tree is append-only and a
/// proof is fully determined by (seq, tree_size) / (old, new), so a
/// hit can never be stale.
///
/// Thread safety: safe for concurrent use; proof reads take only the
/// cache mutex plus the audit log's internal mutex (never the vault
/// lock), and checkpoint publication serializes on its own mutex.
class TransparencyLog {
 public:
  struct Options {
    /// Publish a checkpoint (one XMSS leaf!) at most every this many
    /// new audit events — the leaf-conservation knob. MaybeCheckpoint
    /// is a no-op until the log has grown this much past the last
    /// published checkpoint.
    uint64_t checkpoint_interval = 1024;
  };

  /// `vault` is borrowed and must outlive this object. Metrics go to
  /// the vault's registry under "audit.proof.*" / "audit.witness.*".
  TransparencyLog(Vault* vault, Options options);

  TransparencyLog(const TransparencyLog&) = delete;
  TransparencyLog& operator=(const TransparencyLog&) = delete;

  /// Registers a cosigner; borrowed, must outlive this object. Every
  /// subsequent published checkpoint is offered to it.
  void RegisterWitness(Witness* witness);

  /// Signs the current audit head and gathers cosignatures. A witness
  /// refusal does not fail publication — the checkpoint simply carries
  /// fewer cosignatures (and the refusal is counted and sticky at the
  /// witness).
  Result<CosignedCheckpoint> PublishCheckpoint();

  /// PublishCheckpoint iff the log grew `checkpoint_interval` events
  /// past the last published checkpoint (or has events but no
  /// checkpoint at all). OK and no-op otherwise.
  Status MaybeCheckpoint();

  /// Latest published checkpoint with whatever cosignatures this
  /// process gathered for it. After a restart the checkpoint itself is
  /// restored from the audit log replay but cosignatures are not (they
  /// live with the witnesses); the next publication re-arms them.
  Result<CosignedCheckpoint> LatestCosigned() const;

  /// Inclusion proof for event `seq` under the published checkpoint of
  /// exactly `tree_size` events. kNotFound if no checkpoint was
  /// published at that size or `seq` does not exist;
  /// kInvalidArgument if the event is newer than the checkpoint.
  Result<EventProof> ProveEventAt(uint64_t seq, uint64_t tree_size);

  /// Consistency proof between the published checkpoints at `old_size`
  /// and `new_size`. kNotFound unless both sizes were published.
  Result<ConsistencyBundle> ConsistencyBetween(uint64_t old_size,
                                               uint64_t new_size);

  Vault* vault() { return vault_; }
  size_t witness_count() const;

 private:
  Vault* const vault_;
  const Options options_;

  /// Serializes publication (vault checkpoint + witness fan-out) so
  /// witnesses always see checkpoint sizes in ascending order.
  std::mutex publish_mu_;
  mutable std::mutex state_mu_;
  std::vector<Witness*> witnesses_;        // guarded by state_mu_
  CosignedCheckpoint latest_;              // guarded by state_mu_
  bool has_latest_ = false;                // guarded by state_mu_

  // Proof cache, FIFO-bounded. Keys: (seq, tree_size) for inclusion,
  // (old, new) for consistency — the key spaces cannot collide because
  // inclusion requires seq < tree_size and consistency old <= new.
  std::mutex cache_mu_;
  std::map<std::pair<uint64_t, uint64_t>, EventProof> inclusion_cache_;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<std::string>>
      consistency_cache_;
  std::deque<std::pair<uint64_t, uint64_t>> inclusion_fifo_;
  std::deque<std::pair<uint64_t, uint64_t>> consistency_fifo_;

  // Cached metric handles (registry lookup is mutexed).
  obs::Counter* checkpoints_published_;
  obs::Counter* cosigns_;
  obs::Counter* refusals_;
  obs::Counter* inclusion_proofs_;
  obs::Counter* consistency_proofs_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
};

/// Transparency across a sharded vault: one TransparencyLog per
/// healthy shard (each shard has its own audit chain and signer), with
/// logical witnesses fanned out as one per-shard Witness each — XMSS
/// keys are stateful, so a logical witness derives an independent key
/// per shard (HKDF on the shard index) rather than sharing leaves.
class ShardedTransparencyService {
 public:
  struct Options {
    uint64_t checkpoint_interval = 1024;
    int witness_height = 8;  ///< per-shard cosignature budget
  };

  /// `vault` is borrowed and must outlive this object. Quarantined
  /// shards get no TransparencyLog (their slot is null).
  ShardedTransparencyService(ShardedVault* vault, Options options);

  ShardedTransparencyService(const ShardedTransparencyService&) = delete;
  ShardedTransparencyService& operator=(const ShardedTransparencyService&) =
      delete;

  /// Creates one Witness per healthy shard for the logical witness
  /// `id`, keyed from `secret_seed`/`public_seed` (per-shard derived).
  Status AddWitness(const std::string& id, const Slice& secret_seed,
                    const Slice& public_seed);

  /// Forced checkpoint on every healthy shard (startup, shutdown).
  Status PublishAll();

  /// Interval-gated checkpoint on every healthy shard (periodic tick).
  Status MaybeCheckpointAll();

  Result<CosignedCheckpoint> LatestCosigned(uint32_t shard) const;
  Result<EventProof> ProveEventAt(uint32_t shard, uint64_t seq,
                                  uint64_t tree_size);
  Result<ConsistencyBundle> ConsistencyBetween(uint32_t shard,
                                               uint64_t old_size,
                                               uint64_t new_size);

  /// The shard's log, or kUnavailable while quarantined.
  Result<TransparencyLog*> log(uint32_t shard) const;

  uint32_t num_shards() const { return vault_->num_shards(); }
  size_t witness_count() const;
  ShardedVault* vault() { return vault_; }

  /// Aggregate posture for health reporting, summed over shards.
  struct Stats {
    uint64_t checkpoints_published = 0;
    uint64_t cosigns = 0;
    uint64_t refusals = 0;
    uint64_t inclusion_proofs = 0;
    uint64_t consistency_proofs = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t latest_sizes_sum = 0;  ///< sum of latest checkpoint sizes
    size_t witnesses = 0;
    uint64_t tampered_witnesses = 0;
  };
  Stats CollectStats() const;

 private:
  ShardedVault* const vault_;
  const Options options_;
  std::vector<std::unique_ptr<TransparencyLog>> logs_;  // per shard
  std::vector<std::unique_ptr<Witness>> witnesses_;     // owned
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_TRANSPARENCY_H_
