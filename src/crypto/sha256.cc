#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu_features.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  uint32_t v;
  memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap32(v);
#endif
}

}  // namespace

namespace internal {

void Sha256BlocksScalar(uint32_t state[8], const uint8_t* blocks,
                        size_t nblocks) {
  uint32_t w[64];
  while (nblocks > 0) {
    // Message schedule: whole-word loads + byte swap instead of four
    // per-byte shifts per word.
    for (int i = 0; i < 16; i++) w[i] = LoadBe32(blocks + i * 4);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    // One round, written so eight rounds unroll without the h..a
    // register rotation (each invocation permutes the names instead).
#define MEDVAULT_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                 \
  do {                                                                   \
    uint32_t t1 = (h) + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +       \
                  (((e) & (f)) ^ (~(e) & (g))) + kSha256K[i] + w[i];     \
    uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +             \
                  (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));             \
    (d) += t1;                                                           \
    (h) = t1 + t2;                                                       \
  } while (0)

    for (int i = 0; i < 64; i += 8) {
      MEDVAULT_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
      MEDVAULT_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
      MEDVAULT_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
      MEDVAULT_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
      MEDVAULT_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
      MEDVAULT_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
      MEDVAULT_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
      MEDVAULT_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
#undef MEDVAULT_SHA256_ROUND

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    blocks += 64;
    nblocks--;
  }
}

namespace {

Sha256BlockFn ResolveSha256Kernel() {
  if (!ForceScalarCrypto()) {
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SHA_NI)
    const CpuFeatures& f = GetCpuFeatures();
    if (f.sha_ni && f.ssse3 && f.sse41) return &Sha256BlocksShaNi;
#endif
  }
  return &Sha256BlocksScalar;
}

Sha256LanesFn ResolveSha256LanesKernel() {
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)
  if (!ForceScalarCrypto() && GetCpuFeatures().avx512) {
    return &Sha256LanesAvx512;
  }
#endif
  return &Sha256LanesLoop;
}

}  // namespace

Sha256BlockFn ActiveSha256Kernel() {
  // Function-local static: resolved once, safe across translation-unit
  // initialization order and threads.
  static const Sha256BlockFn fn = ResolveSha256Kernel();
  return fn;
}

bool Sha256Accelerated() {
  return ActiveSha256Kernel() != &Sha256BlocksScalar;
}

void Sha256LanesLoop(uint32_t (*states)[8], const uint8_t* blocks,
                     size_t stride, size_t nblocks) {
  const Sha256BlockFn compress = ActiveSha256Kernel();
  for (int i = 0; i < kSha256Lanes; i++) {
    compress(states[i], blocks + i * stride, nblocks);
  }
}

Sha256LanesFn ActiveSha256LanesKernel() {
  static const Sha256LanesFn fn = ResolveSha256LanesKernel();
  return fn;
}

}  // namespace internal

void Sha256Pad(uint8_t* block, size_t len, uint64_t total_len) {
  const size_t padded = Sha256PaddedSize(len);
  block[len] = 0x80;
  memset(block + len + 1, 0, padded - len - 9);
  const uint64_t bit_len = total_len * 8;
  for (int i = 0; i < 8; i++) {
    block[padded - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
}

Sha256::Sha256(const uint32_t state[8], uint64_t absorbed)
    : total_len_(absorbed), buffer_len_(0) {
  memcpy(state_, state, sizeof(state_));
}

void Sha256::Reset() {
  memcpy(state_, kSha256Iv, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const Slice& data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  if (n == 0) return;
  total_len_ += n;
  const internal::Sha256BlockFn process = internal::ActiveSha256Kernel();

  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > n) take = n;
    memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == 64) {
      process(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= 64) {
    // All whole blocks in one kernel call: hardware kernels amortize
    // their state load/store across the run.
    const size_t whole = n / 64;
    process(state_, p, whole);
    p += whole * 64;
    n -= whole * 64;
  }
  if (n > 0) {
    memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

std::string Sha256::Finish() {
  std::string digest(kDigestSize, '\0');
  Finish(reinterpret_cast<uint8_t*>(digest.data()));
  return digest;
}

void Sha256::Finish(uint8_t* digest) {
  uint8_t tail[128];
  memcpy(tail, buffer_, buffer_len_);
  Sha256Pad(tail, buffer_len_, total_len_);
  internal::ActiveSha256Kernel()(state_, tail,
                                 Sha256PaddedSize(buffer_len_) / 64);
  Sha256StateToDigest(state_, digest);
}

std::string Sha256Digest(const Slice& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace medvault::crypto
