#include "crypto/ctr.h"

#include <algorithm>
#include <cstring>

namespace medvault::crypto {

namespace {

/// Counter blocks generated (and encrypted) per kernel call: enough for
/// the AES-NI kernel to pipeline, small enough to stay on the stack.
constexpr size_t kCtrBatchBlocks = 64;

inline void XorInto(char* out, const char* in, const uint8_t* keystream,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    memcpy(&a, in + i, 8);
    memcpy(&b, keystream + i, 8);
    a ^= b;
    memcpy(out + i, &a, 8);
  }
  for (; i < n; i++) {
    out[i] = static_cast<char>(in[i] ^ keystream[i]);
  }
}

}  // namespace

Status AesCtr::Init(const Slice& key) { return aes_.Init(key); }

Result<std::string> AesCtr::Crypt(const Slice& nonce,
                                  const Slice& input) const {
  std::string out(input.size(), '\0');
  MEDVAULT_RETURN_IF_ERROR(CryptInto(nonce, input, out.data()));
  return out;
}

Status AesCtr::CryptInto(const Slice& nonce, const Slice& input,
                         char* out) const {
  if (!aes_.initialized()) {
    return Status::FailedPrecondition("AesCtr not initialized");
  }
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("CTR nonce must be 16 bytes");
  }

  uint8_t counter[16];
  memcpy(counter, nonce.data(), 16);

  uint8_t counters[kCtrBatchBlocks * 16];
  uint8_t keystream[kCtrBatchBlocks * 16];
  size_t off = 0;
  while (off < input.size()) {
    const size_t remaining = input.size() - off;
    const size_t blocks =
        std::min(kCtrBatchBlocks, (remaining + 15) / 16);
    for (size_t b = 0; b < blocks; b++) {
      memcpy(counters + b * 16, counter, 16);
      // Increment low 64 bits big-endian.
      for (int i = 15; i >= 8; i--) {
        if (++counter[i] != 0) break;
      }
    }
    aes_.EncryptBlocks(counters, keystream, blocks);
    const size_t n = std::min(blocks * 16, remaining);
    XorInto(out + off, input.data() + off, keystream, n);
    off += n;
  }
  return Status::OK();
}

}  // namespace medvault::crypto
