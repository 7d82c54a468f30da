// CRC-32C with the SSE4.2 `crc32` instruction. Compiled as its own
// translation unit with -msse4.2; only ever called after runtime CPUID
// detection (see crc32c.cc dispatch), so the rest of the library stays
// runnable on CPUs without the extension.
//
// One dependency chain of 8-byte steps: the instruction computes the
// same reflected Castagnoli CRC as the table, so both kernels write and
// accept identical bytes.

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42)

#include <nmmintrin.h>

#include <cstring>

#include "common/crc32c.h"

namespace medvault::crc32c::internal {

uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Byte steps up to an 8-byte boundary, so the word loads are aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    n--;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; n--) crc = _mm_crc32_u8(crc, *p++);
  return crc ^ 0xffffffffu;
}

}  // namespace medvault::crc32c::internal

#endif  // __x86_64__ && MEDVAULT_HAVE_SSE42
