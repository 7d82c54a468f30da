#ifndef MEDVAULT_CRYPTO_HMAC_H_
#define MEDVAULT_CRYPTO_HMAC_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/slice.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

/// An HMAC-SHA256 key with its pads absorbed once: the SHA-256
/// midstates after the key^ipad and key^opad blocks (the precomputation
/// of RFC 2104 section 4). Each Mac() then skips both key blocks, so a
/// MAC over a message of up to 55 bytes costs two compressions.
class HmacSha256Key {
 public:
  /// Keys longer than the 64-byte block are hashed first.
  explicit HmacSha256Key(const Slice& key);

  /// Returns the 32-byte tag of `message`.
  std::string Mac(const Slice& message) const;
  /// Returns the tag of the concatenation of `pieces`, fed to the inner
  /// hash one by one rather than copied together first.
  std::string Mac(std::initializer_list<Slice> pieces) const;

  /// Tags of internal::kSha256Lanes short messages in two calls of the
  /// dispatched lanes kernel: lane i MACs the `len` bytes at
  /// `messages + i * stride` and writes its kDigestSize-byte tag to
  /// `tags + i * kDigestSize`. Each message must fit one padded block
  /// (len <= 55).
  void MacLanes(const uint8_t* messages, size_t stride, size_t len,
                uint8_t* tags) const;

 private:
  uint32_t inner_[8];  ///< midstate after the key^ipad block
  uint32_t outer_[8];  ///< midstate after the key^opad block
};

/// HMAC-SHA256 (RFC 2104). Returns a 32-byte tag.
std::string HmacSha256(const Slice& key, const Slice& message);

/// Constant-time equality of two byte strings (length leak only).
/// Use for all MAC/tag comparisons.
bool ConstantTimeEqual(const Slice& a, const Slice& b);

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_HMAC_H_
