#ifndef MEDVAULT_COMMON_CRC32C_H_
#define MEDVAULT_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace medvault::crc32c {

/// CRC-32C (Castagnoli) over [data, data+n), extending `init_crc` (which
/// must be the return value of a previous Value/Extend call, or 0).
/// Dispatched once per process: the SSE4.2 `crc32` instruction on x86-64
/// CPUs that have it, otherwise a byte-at-a-time table
/// (MEDVAULT_FORCE_SCALAR pins the table).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) {
  return Extend(0, data, n);
}
inline uint32_t Value(const Slice& s) { return Value(s.data(), s.size()); }

/// CRCs stored next to the data they guard are "masked" so that the CRC
/// of a buffer that itself contains CRCs stays well-distributed
/// (LevelDB/RocksDB trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return ((rot >> 17) | (rot << 15));
}

namespace internal {

// The kernels behind Extend, exposed so the differential tests can pin
// one; each has Extend's contract.
using ExtendFn = uint32_t (*)(uint32_t init_crc, const char* data, size_t n);

/// Portable fallback: one 256-entry table lookup per byte.
uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42)
/// One stream of the SSE4.2 `crc32` instruction, 8 bytes per step
/// (requires SSE4.2 at runtime).
uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n);
#endif

/// The kernel Extend dispatches to.
ExtendFn ActiveExtend();

}  // namespace internal

}  // namespace medvault::crc32c

#endif  // MEDVAULT_COMMON_CRC32C_H_
