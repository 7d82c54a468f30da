#ifndef MEDVAULT_CRYPTO_XMSS_H_
#define MEDVAULT_CRYPTO_XMSS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "crypto/wots.h"

namespace medvault::crypto {

/// A many-time signature built from WOTS one-time keys under a Merkle
/// tree (XMSS-style, simplified addressing — see wots.h). A signer of
/// height h can produce 2^h signatures; MedVault uses these for audit
/// checkpoints, migration receipts, and disposal certificates, where the
/// 30-year verification horizon argues for hash-based security.
///
/// The signer is *stateful*: each signature consumes one leaf. State loss
/// or duplication is a security failure, so SignaturesRemaining() should
/// be monitored and the state persisted by the caller (Vault stores it in
/// its manifest).
struct XmssSignature {
  uint32_t leaf_index = 0;
  std::string wots_signature;           ///< EncodeSignature output
  std::vector<std::string> auth_path;   ///< bottom-up sibling hashes

  /// Serialization for embedding in receipts/certificates.
  std::string Encode() const;
  static Result<XmssSignature> Decode(const Slice& data);
};

class XmssSigner {
 public:
  /// Builds a signer with 2^height one-time keys derived from
  /// `secret_seed` / `public_seed`. Key generation hashes all leaves, so
  /// cost grows as 2^height; heights 4-10 are practical here.
  XmssSigner(const Slice& secret_seed, const Slice& public_seed, int height);

  /// Rebuilds the same signer from its 2^height leaves (the WOTS public
  /// keys `leaves()` returned), hashing only the 2^height - 1 inner
  /// nodes. The caller must have authenticated `leaves` and checked
  /// that there are exactly 2^height of them, each Wots::kN bytes: a
  /// wrong leaf gives a wrong public key, never a wrong secret.
  XmssSigner(const Slice& secret_seed, const Slice& public_seed, int height,
             std::vector<std::string> leaves);

  XmssSigner(const XmssSigner&) = delete;
  XmssSigner& operator=(const XmssSigner&) = delete;
  XmssSigner(XmssSigner&&) = default;
  XmssSigner& operator=(XmssSigner&&) = default;

  /// The long-lived public key (Merkle root over WOTS public keys).
  const std::string& public_key() const { return root_; }
  const std::string& public_seed() const { return public_seed_; }
  int height() const { return height_; }
  /// The 2^height leaves, in order: public values (auth paths in
  /// published signatures reveal them too).
  const std::vector<std::string>& leaves() const { return nodes_[0]; }

  uint64_t SignaturesUsed() const { return next_leaf_; }
  uint64_t SignaturesRemaining() const {
    return (1ULL << height_) - next_leaf_;
  }

  /// Signs an arbitrary message (hashed internally). Consumes one leaf;
  /// fails with kFailedPrecondition when exhausted.
  Result<XmssSignature> Sign(const Slice& message);

  /// Restores signer state (e.g. after reload). `next_leaf` must not
  /// rewind below the current position.
  Status RestoreState(uint64_t next_leaf);

  /// Stateless verification against a public key.
  static Status Verify(const Slice& message, const XmssSignature& sig,
                       const Slice& public_key, const Slice& public_seed,
                       int height);

 private:
  /// Hashes the levels above nodes_[0] and sets root_.
  void BuildTree();

  std::string secret_seed_;
  std::string public_seed_;
  int height_;
  uint64_t next_leaf_ = 0;
  /// nodes_[level][i]: hash of subtree; level 0 = leaves.
  std::vector<std::vector<std::string>> nodes_;
  std::string root_;
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_XMSS_H_
