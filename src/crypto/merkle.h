#ifndef MEDVAULT_CRYPTO_MERKLE_H_
#define MEDVAULT_CRYPTO_MERKLE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace medvault::crypto {

/// Append-only Merkle hash tree over a sequence of leaves, following the
/// RFC 6962 (Certificate Transparency) hashing discipline:
///
///   leaf hash  = SHA-256(0x00 || leaf)
///   node hash  = SHA-256(0x01 || left || right)
///   MTH({})    = SHA-256("")
///
/// Provides logarithmic *inclusion proofs* ("entry i is in the tree with
/// root R") and *consistency proofs* ("the tree with root R2 is an
/// append-only extension of the tree with root R1"). These are what make
/// MedVault's audit trail verifiable by an external auditor and its
/// migrations provably exact copies.
class MerkleTree {
 public:
  /// By default, hashes of complete aligned subtrees of at least
  /// kMemoBlock leaves are memoized incrementally on append, making
  /// Root/RootAt/proof generation O(log n) instead of O(n) per call;
  /// smaller subtrees are rehashed from the leaves (at most
  /// kMemoBlock - 1 node hashes). Pass memoize=false to get the naive
  /// recompute-everything behaviour (kept for the ablation bench that
  /// quantifies this design choice — see bench_ablation).
  explicit MerkleTree(bool memoize = true) : memoize_(memoize) {}

  MerkleTree(const MerkleTree&) = default;
  MerkleTree& operator=(const MerkleTree&) = default;

  /// Appends a leaf (raw data; the class applies the 0x00-prefix hash).
  /// Returns the index of the new leaf.
  uint64_t Append(const Slice& leaf_data);

  /// Appends a precomputed leaf hash. kInvalidArgument unless it is
  /// exactly 32 bytes.
  Result<uint64_t> AppendLeafHash(const Slice& leaf_hash);

  /// Number of leaves.
  uint64_t size() const { return leaves_.size(); }

  /// Root hash over all leaves (empty-tree root if size()==0).
  std::string Root() const;

  /// Root hash over the first `n` leaves. n <= size().
  Result<std::string> RootAt(uint64_t n) const;

  /// Leaf hash at `index`.
  Result<std::string> LeafHash(uint64_t index) const;

  /// Audit path proving leaf `index` is included in the first `tree_size`
  /// leaves. Verify with VerifyInclusion.
  Result<std::vector<std::string>> InclusionProof(uint64_t index,
                                                  uint64_t tree_size) const;

  /// Proof that the first `old_size` leaves are a prefix of the first
  /// `new_size` leaves. Verify with VerifyConsistency.
  Result<std::vector<std::string>> ConsistencyProof(uint64_t old_size,
                                                    uint64_t new_size) const;

  /// Stateless verification of an inclusion proof.
  /// Returns OK or kTamperDetected.
  static Status VerifyInclusion(const Slice& leaf_hash, uint64_t index,
                                uint64_t tree_size,
                                const std::vector<std::string>& proof,
                                const Slice& root);

  /// Stateless verification of a consistency proof.
  static Status VerifyConsistency(uint64_t old_size, const Slice& old_root,
                                  uint64_t new_size, const Slice& new_root,
                                  const std::vector<std::string>& proof);

  /// SHA-256(0x00 || data).
  static std::string HashLeaf(const Slice& data);
  /// SHA-256(0x01 || left || right).
  static std::string HashNode(const Slice& left, const Slice& right);
  /// Root of the empty tree: SHA-256("").
  static std::string EmptyRoot();

  /// Smallest memoized subtree, in leaves.
  static constexpr uint64_t kMemoBlockLog = 4;
  static constexpr uint64_t kMemoBlock = uint64_t{1} << kMemoBlockLog;

 private:
  /// One hash in a flat 32-byte slot: no per-hash heap allocation.
  using Hash = std::array<char, 32>;

  static Hash HashLeafFlat(const Slice& data);
  static Hash HashNodeFlat(const Hash& left, const Hash& right);
  /// Appends `leaf` and closes every memo block it completes.
  uint64_t AppendHash(const Hash& leaf);
  static std::string ToString(const Hash& h) {
    return std::string(h.data(), h.size());
  }

  /// MTH over leaves_[begin, begin+n), n >= 1.
  Hash SubtreeRoot(uint64_t begin, uint64_t n) const;

  bool memoize_ = true;
  /// Deques grow in fixed blocks, so resident bytes track the leaf
  /// count with no doubling slack.
  std::deque<Hash> leaves_;
  /// memo_[k][i] = MTH over the complete block of 2^(kMemoBlockLog+k)
  /// leaves starting at leaf i * 2^(kMemoBlockLog+k). Populated
  /// incrementally on append when memoize_.
  std::vector<std::deque<Hash>> memo_;
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_MERKLE_H_
