#ifndef MEDVAULT_CRYPTO_CTR_H_
#define MEDVAULT_CRYPTO_CTR_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "crypto/aes.h"

namespace medvault::crypto {

/// Nonce size used by AES-CTR here: 16 bytes (a full initial counter
/// block; the low 64 bits are incremented big-endian per block).
constexpr size_t kCtrNonceSize = 16;

/// AES-CTR keystream cipher. Encryption and decryption are the same
/// operation. CTR provides *no* integrity — always use through Aead.
class AesCtr {
 public:
  AesCtr() = default;

  /// `key` is 16 or 32 bytes.
  Status Init(const Slice& key);

  /// XORs `input` with the keystream for (nonce, starting block 0).
  /// `nonce` must be kCtrNonceSize bytes and must never repeat per key.
  Result<std::string> Crypt(const Slice& nonce, const Slice& input) const;

  /// As Crypt, but writes the input.size() output bytes to `out`.
  Status CryptInto(const Slice& nonce, const Slice& input, char* out) const;

 private:
  Aes aes_;
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_CTR_H_
