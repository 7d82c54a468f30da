// SHA-256 compression of 16 independent streams with AVX-512. Compiled
// as its own translation unit with -mavx512f -mavx512bw; only ever
// called after runtime CPUID/XGETBV detection (see sha256.cc dispatch),
// so the rest of the library stays runnable on CPUs without it.
//
// Word-sliced: one zmm register holds the same message or state word of
// all 16 lanes, so each vector instruction advances one round of every
// lane. Rotates are vprord; Ch, Maj and the three-way XORs of the Σ/σ
// functions are one vpternlogd each. Message words are gathered from the
// lanes' blocks and byte-swapped with vpshufb; the states are gathered
// in and scattered out once per call.

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)

#include <immintrin.h>

#include "crypto/sha256_kernels.h"

namespace medvault::crypto::internal {

namespace {

inline __m512i Add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }

// vpternlogd truth tables: 0x96 = a ^ b ^ c, 0xca = a ? b : c,
// 0xe8 = majority(a, b, c).
inline __m512i Xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}
inline __m512i Ch(__m512i e, __m512i f, __m512i g) {
  return _mm512_ternarylogic_epi32(e, f, g, 0xca);
}
inline __m512i Maj(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0xe8);
}
inline __m512i BigSigma0(__m512i a) {
  return Xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13),
              _mm512_ror_epi32(a, 22));
}
inline __m512i BigSigma1(__m512i e) {
  return Xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11),
              _mm512_ror_epi32(e, 25));
}
inline __m512i SmallSigma0(__m512i x) {
  return Xor3(_mm512_ror_epi32(x, 7), _mm512_ror_epi32(x, 18),
              _mm512_srli_epi32(x, 3));
}
inline __m512i SmallSigma1(__m512i x) {
  return Xor3(_mm512_ror_epi32(x, 17), _mm512_ror_epi32(x, 19),
              _mm512_srli_epi32(x, 10));
}

}  // namespace

void Sha256LanesAvx512(uint32_t (*states)[8], const uint8_t* blocks,
                       size_t stride, size_t nblocks) {
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i state_index = _mm512_slli_epi32(lane, 3);  // lane * 8 words
  const __m512i block_index =
      _mm512_mullo_epi32(lane, _mm512_set1_epi32(static_cast<int>(stride)));
  const __m512i bswap = _mm512_set_epi32(
      0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203, 0x0c0d0e0f,
      0x08090a0b, 0x04050607, 0x00010203, 0x0c0d0e0f, 0x08090a0b,
      0x04050607, 0x00010203, 0x0c0d0e0f, 0x08090a0b, 0x04050607,
      0x00010203);

  __m512i s[8];
  for (int k = 0; k < 8; k++) {
    s[k] = _mm512_i32gather_epi32(state_index, &states[0][k], 4);
  }

  for (; nblocks > 0; nblocks--, blocks += 64) {
    __m512i w[16];
    for (int k = 0; k < 16; k++) {
      w[k] = _mm512_shuffle_epi8(
          _mm512_i32gather_epi32(block_index, blocks + 4 * k, 1), bswap);
    }
    __m512i a = s[0], b = s[1], c = s[2], d = s[3];
    __m512i e = s[4], f = s[5], g = s[6], h = s[7];

    // One round on schedule slot j (rounds r + j); as in the scalar
    // kernel, eight invocations permute the names instead of rotating
    // a..h. From round 16 on, slot j first advances to W[r + j].
#define MEDVAULT_X16_ROUND(a, b, c, d, e, f, g, h, j)                     \
  do {                                                                    \
    if (r >= 16) {                                                        \
      w[j] = Add(Add(w[j], SmallSigma0(w[((j) + 1) & 15])),               \
                 Add(w[((j) + 9) & 15], SmallSigma1(w[((j) + 14) & 15]))); \
    }                                                                     \
    __m512i t1 =                                                          \
        Add(Add(h, BigSigma1(e)),                                         \
            Add(Ch(e, f, g),                                              \
                Add(w[j], _mm512_set1_epi32(                              \
                              static_cast<int>(kSha256K[r + (j)])))));    \
    __m512i t2 = Add(BigSigma0(a), Maj(a, b, c));                         \
    d = Add(d, t1);                                                       \
    h = Add(t1, t2);                                                      \
  } while (0)

    for (int r = 0; r < 64; r += 16) {
      MEDVAULT_X16_ROUND(a, b, c, d, e, f, g, h, 0);
      MEDVAULT_X16_ROUND(h, a, b, c, d, e, f, g, 1);
      MEDVAULT_X16_ROUND(g, h, a, b, c, d, e, f, 2);
      MEDVAULT_X16_ROUND(f, g, h, a, b, c, d, e, 3);
      MEDVAULT_X16_ROUND(e, f, g, h, a, b, c, d, 4);
      MEDVAULT_X16_ROUND(d, e, f, g, h, a, b, c, 5);
      MEDVAULT_X16_ROUND(c, d, e, f, g, h, a, b, 6);
      MEDVAULT_X16_ROUND(b, c, d, e, f, g, h, a, 7);
      MEDVAULT_X16_ROUND(a, b, c, d, e, f, g, h, 8);
      MEDVAULT_X16_ROUND(h, a, b, c, d, e, f, g, 9);
      MEDVAULT_X16_ROUND(g, h, a, b, c, d, e, f, 10);
      MEDVAULT_X16_ROUND(f, g, h, a, b, c, d, e, 11);
      MEDVAULT_X16_ROUND(e, f, g, h, a, b, c, d, 12);
      MEDVAULT_X16_ROUND(d, e, f, g, h, a, b, c, 13);
      MEDVAULT_X16_ROUND(c, d, e, f, g, h, a, b, 14);
      MEDVAULT_X16_ROUND(b, c, d, e, f, g, h, a, 15);
    }
#undef MEDVAULT_X16_ROUND

    s[0] = Add(s[0], a);
    s[1] = Add(s[1], b);
    s[2] = Add(s[2], c);
    s[3] = Add(s[3], d);
    s[4] = Add(s[4], e);
    s[5] = Add(s[5], f);
    s[6] = Add(s[6], g);
    s[7] = Add(s[7], h);
  }

  for (int k = 0; k < 8; k++) {
    _mm512_i32scatter_epi32(&states[0][k], state_index, s[k], 4);
  }
}

}  // namespace medvault::crypto::internal

#endif  // defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)
