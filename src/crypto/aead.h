#ifndef MEDVAULT_CRYPTO_AEAD_H_
#define MEDVAULT_CRYPTO_AEAD_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"

namespace medvault::crypto {

/// Authenticated encryption with associated data, composed from the
/// primitives in this library: AES-256-CTR for confidentiality plus
/// HMAC-SHA256 over (aad_len || aad || nonce || ciphertext) in
/// encrypt-then-MAC order — the composition with a standard security
/// proof (Bellare & Namprempre).
///
/// Wire format of Seal() output: nonce (16) || ciphertext || tag (32).
///
/// The 32-byte AEAD key is split via HKDF into independent cipher and MAC
/// keys, so a single key object cannot be misused across roles. Init
/// expands both once (AES round keys, HMAC pad midstates); Seal and Open
/// reuse them.
class Aead {
 public:
  /// Total bytes Seal() adds to a plaintext.
  static constexpr size_t kOverhead = 16 + 32;  // nonce + tag

  Aead() = default;

  /// `key` must be 32 bytes of uniform randomness.
  Status Init(const Slice& key);

  /// Encrypts and authenticates. `nonce` must be 16 bytes, unique per key.
  /// `aad` is authenticated but not encrypted (e.g. record metadata).
  Result<std::string> Seal(const Slice& nonce, const Slice& plaintext,
                           const Slice& aad) const;

  /// Verifies and decrypts a Seal() output. Returns kTamperDetected if the
  /// tag does not verify — the caller must treat that as an integrity
  /// breach, not a plain error.
  Result<std::string> Open(const Slice& sealed, const Slice& aad) const;

 private:
  AesCtr ctr_;
  std::optional<HmacSha256Key> mac_;  ///< set by Init

  std::string ComputeTag(const Slice& nonce, const Slice& ciphertext,
                         const Slice& aad) const;
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_AEAD_H_
