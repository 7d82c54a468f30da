#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256.h"

namespace medvault::crypto {

HmacSha256Key::HmacSha256Key(const Slice& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    memcpy(key_block, Sha256Digest(key).data(), kDigestSize);
  } else {
    memcpy(key_block, key.data(), key.size());
  }

  auto absorb_pad = [&](uint8_t pad_byte, Sha256* h) {
    char pad[kBlockSize];
    for (size_t i = 0; i < kBlockSize; i++) {
      pad[i] = static_cast<char>(key_block[i] ^ pad_byte);
    }
    h->Update(Slice(pad, kBlockSize));
  };
  absorb_pad(0x36, &inner_);
  absorb_pad(0x5c, &outer_);
}

std::string HmacSha256Key::Mac(const Slice& message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  Sha256 outer = outer_;
  outer.Update(inner.Finish());
  return outer.Finish();
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
