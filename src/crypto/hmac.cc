#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {

HmacSha256Key::HmacSha256Key(const Slice& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    memcpy(key_block, Sha256Digest(key).data(), kDigestSize);
  } else {
    memcpy(key_block, key.data(), key.size());
  }

  auto absorb_pad = [&](uint8_t pad_byte, uint32_t state[8]) {
    uint8_t pad[kBlockSize];
    for (size_t i = 0; i < kBlockSize; i++) {
      pad[i] = key_block[i] ^ pad_byte;
    }
    memcpy(state, kSha256Iv, sizeof(kSha256Iv));
    internal::ActiveSha256Kernel()(state, pad, 1);
  };
  absorb_pad(0x36, inner_);
  absorb_pad(0x5c, outer_);
}

std::string HmacSha256Key::Mac(const Slice& message) const {
  return Mac({message});
}

std::string HmacSha256Key::Mac(std::initializer_list<Slice> pieces) const {
  Sha256 inner(inner_, 64);
  for (const Slice& piece : pieces) inner.Update(piece);
  uint8_t inner_digest[kDigestSize];
  inner.Finish(inner_digest);
  Sha256 outer(outer_, 64);
  outer.Update(Slice(reinterpret_cast<const char*>(inner_digest), kDigestSize));
  return outer.Finish();
}

void HmacSha256Key::MacLanes(const uint8_t* messages, size_t stride,
                             size_t len, uint8_t* tags) const {
  constexpr int kLanes = internal::kSha256Lanes;
  const internal::Sha256LanesFn compress =
      internal::ActiveSha256LanesKernel();
  uint8_t blocks[kLanes][64] = {};
  uint32_t states[kLanes][8] = {};
  // Inner hash: one block of message and padding after the ipad block.
  for (int i = 0; i < kLanes; i++) {
    memcpy(blocks[i], messages + i * stride, len);
    Sha256Pad(blocks[i], len, 64 + len);
    memcpy(states[i], inner_, sizeof(inner_));
  }
  compress(states, blocks[0], 64, 1);
  // Outer hash: the inner digest and padding after the opad block.
  for (int i = 0; i < kLanes; i++) {
    Sha256StateToDigest(states[i], blocks[i]);
    Sha256Pad(blocks[i], kDigestSize, 64 + kDigestSize);
    memcpy(states[i], outer_, sizeof(outer_));
  }
  compress(states, blocks[0], 64, 1);
  for (int i = 0; i < kLanes; i++) {
    Sha256StateToDigest(states[i], tags + i * kDigestSize);
  }
}

std::string HmacSha256(const Slice& key, const Slice& message) {
  return HmacSha256Key(key).Mac(message);
}

bool ConstantTimeEqual(const Slice& a, const Slice& b) {
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (size_t i = 0; i < a.size(); i++) {
    diff |= static_cast<unsigned char>(a[i]) ^ static_cast<unsigned char>(b[i]);
  }
  return diff == 0;
}

}  // namespace medvault::crypto
