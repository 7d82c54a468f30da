#ifndef MEDVAULT_CRYPTO_WOTS_H_
#define MEDVAULT_CRYPTO_WOTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace medvault::crypto {

/// Winternitz one-time signatures (WOTS+-style), the building block of the
/// XMSS-style scheme in xmss.h.
///
/// Why hash-based signatures here: HIPAA/OSHA retention reaches 30 years.
/// Archival signatures must stay verifiable for the full retention period,
/// and hash-based schemes rest only on the preimage resistance of SHA-256
/// (and are post-quantum), which is the conservative choice for that
/// horizon. This is a from-scratch, structurally faithful implementation
/// (chained hashing with domain-separated keyed steps); it intentionally
/// simplifies the RFC 8391 bitmask addressing scheme, which changes tags,
/// not structure. See DESIGN.md.
///
/// Parameters: n = 32 (SHA-256), Winternitz w = 16, so 64 message digits +
/// 3 checksum digits = 67 hash chains.
class Wots {
 public:
  static constexpr int kN = 32;        ///< hash output bytes
  static constexpr int kW = 16;        ///< Winternitz parameter
  static constexpr int kLen1 = 64;     ///< message digits (256 / log2(16))
  static constexpr int kLen2 = 3;      ///< checksum digits
  static constexpr int kLen = kLen1 + kLen2;  ///< total chains

  /// A WOTS signature: kLen chain values of kN bytes each.
  using Signature = std::vector<std::string>;

  /// Derives the one-time private key chains for address `leaf_index`
  /// from `secret_seed`, and the chain-step keying from `public_seed`.
  Wots(const Slice& secret_seed, const Slice& public_seed,
       uint32_t leaf_index);

  /// Compressed public keys of leaves [first_leaf, first_leaf + count):
  /// per leaf, SHA-256 over "wots-pk" and its kLen chain tops. The
  /// chains of consecutive leaves are walked internal::kSha256Lanes at a
  /// time, in lock-step, through the dispatched lanes kernel, and each
  /// chain top is streamed into its leaf's hash, so memory stays
  /// O(kSha256Lanes) chains whatever `count` is.
  static std::vector<std::string> PublicKeys(const Slice& secret_seed,
                                             const Slice& public_seed,
                                             uint32_t first_leaf,
                                             uint32_t count);

  /// Signs a 32-byte message digest. A WOTS key must sign at most once;
  /// the XMSS layer enforces that.
  Result<Signature> Sign(const Slice& digest) const;

  /// Recomputes the compressed public key from a signature + digest.
  /// Stateless: needs only the public seed and leaf index.
  static Result<std::string> PublicKeyFromSignature(const Slice& digest,
                                                    const Signature& sig,
                                                    const Slice& public_seed,
                                                    uint32_t leaf_index);

  /// Full verification against a known public key.
  static Status Verify(const Slice& digest, const Signature& sig,
                       const Slice& public_key, const Slice& public_seed,
                       uint32_t leaf_index);

  /// Serializes a signature (kLen * kN bytes).
  static std::string EncodeSignature(const Signature& sig);
  static Result<Signature> DecodeSignature(const Slice& data);

 private:
  /// Applies `steps` chain iterations starting from the kN-byte `value`
  /// at position `start` in chain `chain_index`.
  static std::string Chain(const Slice& public_seed, uint32_t leaf_index,
                           int chain_index, int start, int steps,
                           const Slice& value);

  /// Message digest -> kLen base-w digits (message + checksum).
  static Result<std::vector<int>> Digits(const Slice& digest);

  std::string public_seed_;
  uint32_t leaf_index_;
  std::vector<std::string> secret_chains_;
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_WOTS_H_
