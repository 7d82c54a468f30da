#include "common/crc32c.h"

#include <array>

#include "crypto/cpu_features.h"

namespace medvault::crc32c {

namespace {

// Table-driven CRC-32C, polynomial 0x1EDC6F41 (reflected: 0x82F63B78).
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

internal::ExtendFn ResolveKernel() {
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42)
  if (!crypto::ForceScalarCrypto() && crypto::GetCpuFeatures().sse42) {
    return &internal::ExtendSse42;
  }
#endif
  return &internal::ExtendTable;
}

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

ExtendFn ActiveExtend() {
  // Function-local static: resolved once, safe across translation-unit
  // initialization order and threads.
  static const ExtendFn fn = ResolveKernel();
  return fn;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return internal::ActiveExtend()(init_crc, data, n);
}

}  // namespace medvault::crc32c
