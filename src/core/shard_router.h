#ifndef MEDVAULT_CORE_SHARD_ROUTER_H_
#define MEDVAULT_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "core/record.h"
#include "storage/env.h"

namespace medvault::core {

/// Deterministic id -> shard placement for the sharded vault.
///
/// Placement must be a pure function of the id bytes: the same patient
/// must land on the same shard across process restarts, machines, and
/// compiler versions, or records written yesterday become unreachable
/// today. The router therefore uses FNV-1a (a fixed, well-specified
/// 64-bit hash) rather than std::hash, whose value is unspecified and
/// may change between standard-library releases.
///
/// The shard *count* is part of the vault's on-disk identity: hashing
/// mod N is only stable while N is fixed, so the count is persisted in
/// a manifest at the vault root and every open cross-checks it.
/// Re-sharding is a migration, never a reinterpretation.
class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards) : num_shards_(num_shards) {}

  uint32_t num_shards() const { return num_shards_; }

  /// Shard owning `id` (a patient id on the create path). Pure and
  /// stable: depends only on the id bytes and the shard count.
  uint32_t ShardOf(const std::string& id) const {
    return static_cast<uint32_t>(Fingerprint(id) % num_shards_);
  }

  /// The fixed 64-bit FNV-1a fingerprint ShardOf() reduces mod N.
  /// Exposed so tests can pin golden values against re-implementation.
  static uint64_t Fingerprint(const std::string& id);

  /// Directory of shard `k` under the sharded-vault root.
  static std::string ShardDir(const std::string& root, uint32_t shard);

  /// Record-id prefix shard `k`'s inner vault assigns ids under
  /// ("s<k>-r", so ids read "s<k>-r-<n>"). The embedded shard index is
  /// what lets record-id-keyed operations route in O(1) without
  /// consulting any shard.
  static std::string RecordIdPrefix(uint32_t shard);

  /// Parses the shard index out of a sharded record id ("s<k>-r-<n>").
  /// Returns false for ids that do not name a shard (e.g. a plain
  /// unsharded "r-<n>").
  static bool ShardOfRecordId(const RecordId& record_id, uint32_t* shard);

  /// Consent-grant-id prefix shard `k`'s inner vault assigns ids under
  /// ("s<k>-cg", so grant ids read "s<k>-cg-<n>"). A grant lives on the
  /// shard of its granting patient; the embedded index lets revocation
  /// route by grant id alone.
  static std::string ConsentIdPrefix(uint32_t shard);

  /// Parses the shard index out of a sharded consent-grant id
  /// ("s<k>-cg-<n>"). Returns false for non-sharded ids ("cg-<n>").
  static bool ShardOfConsentId(const std::string& grant_id, uint32_t* shard);

  /// Shard-qualifies shard `k`'s disposal request id: "dr-<n>" becomes
  /// "s<k>:dr-<n>", so approval routes back to the requesting shard.
  static std::string QualifyDisposalRequest(uint32_t shard,
                                            const std::string& request_id);

  /// Parses "s<k>:dr-<n>" into the shard index and the shard-local
  /// request id ("dr-<n>"). Returns false for anything else.
  static bool ShardOfDisposalRequest(const std::string& qualified,
                                     uint32_t* shard, std::string* local_id);

  // ---- Per-shard secrets and the shard-count manifest ------------------

  /// Shard `k`'s key-wrapping master key (32 bytes) and entropy pool (64
  /// bytes), HKDF-derived from the vault's root secrets under per-shard
  /// labels, so shards are independent key domains.
  static Result<std::string> ShardMasterKey(const Slice& master_key,
                                            uint32_t shard);
  static Result<std::string> ShardEntropy(const Slice& entropy,
                                          uint32_t shard);

  /// Creates `root` if missing, then checks the count persisted in
  /// `<root>/shards.meta` against `num_shards`, writing the manifest
  /// durably on first use. Another persisted count is InvalidArgument
  /// naming both; a damaged manifest is Corruption.
  static Status CheckOrCreateManifest(storage::Env* env,
                                      const std::string& root,
                                      uint32_t num_shards);

 private:
  uint32_t num_shards_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_SHARD_ROUTER_H_
