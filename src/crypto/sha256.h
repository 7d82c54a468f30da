#ifndef MEDVAULT_CRYPTO_SHA256_H_
#define MEDVAULT_CRYPTO_SHA256_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace medvault::crypto {

/// Size in bytes of a SHA-256 digest.
constexpr size_t kDigestSize = 32;

/// Initial hash value H(0) (FIPS 180-4 section 5.3.3).
inline constexpr uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                                          0x1f83d9ab, 0x5be0cd19};

/// Bytes of whole 64-byte blocks that hold a `len`-byte message tail
/// plus its padding.
constexpr size_t Sha256PaddedSize(size_t len) {
  return (len + 9 + 63) / 64 * 64;
}

/// Pads the `len`-byte tail at `block` in place up to
/// Sha256PaddedSize(len): 0x80, zeros, then the 64-bit big-endian bit
/// length of the whole `total_len`-byte message.
void Sha256Pad(uint8_t* block, size_t len, uint64_t total_len);

/// Writes a chaining state as 32 big-endian digest bytes. Inline: the
/// WOTS chain walk calls it once per lane per step.
inline void Sha256StateToDigest(const uint32_t state[8], uint8_t* digest) {
  for (int i = 0; i < 8; i++) {
    uint32_t word = state[i];
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_BIG_ENDIAN__
    word = __builtin_bswap32(word);
#endif
    memcpy(digest + 4 * i, &word, 4);
  }
}

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
///
///   Sha256 h;
///   h.Update("abc");
///   std::string digest = h.Finish();   // 32 raw bytes
///
/// Finish() may be called once; the object is then exhausted.
///
/// The block compression is dispatched once per process: a SHA-NI
/// kernel on x86-64 CPUs that support it, otherwise a word-aligned
/// scalar fallback (see crypto/sha256_kernels.h). Set the
/// MEDVAULT_FORCE_SCALAR environment variable to pin the fallback.
class Sha256 {
 public:
  Sha256() { Reset(); }
  /// Resumes from the chaining `state` reached after absorbing the
  /// first `absorbed` bytes of a message (a multiple of 64).
  Sha256(const uint32_t state[8], uint64_t absorbed);

  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;

  /// Re-initializes to the empty-message state.
  void Reset();

  /// Absorbs `data`.
  void Update(const Slice& data);

  /// Returns the 32-byte digest of everything absorbed so far.
  std::string Finish();
  /// Same, written to `digest` (kDigestSize bytes) without allocating.
  void Finish(uint8_t* digest);

 private:
  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// One-shot convenience: SHA-256(data).
std::string Sha256Digest(const Slice& data);

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_SHA256_H_
