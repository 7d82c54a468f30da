#include "crypto/cpu_features.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define MEDVAULT_CPU_X86 1
#endif

namespace medvault::crypto {

namespace {

#if defined(MEDVAULT_CPU_X86)
// XCR0, the register of state components the OS saves on context
// switch. Read with the raw opcode so this TU needs no -mxsave.
uint64_t ReadXcr0() {
  uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
#endif

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(MEDVAULT_CPU_X86)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  bool os_zmm_state = false;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    f.sse42 = (ecx & (1u << 20)) != 0;
    f.aes_ni = (ecx & (1u << 25)) != 0;
    // OSXSAVE, then XCR0 bits 1-2 (SSE, AVX) and 5-7 (opmask, upper
    // zmm0-15, zmm16-31): without them the OS does not save zmm state.
    constexpr uint64_t kZmmState = (1u << 1) | (1u << 2) | (1u << 5) |
                                   (1u << 6) | (1u << 7);
    os_zmm_state = (ecx & (1u << 27)) != 0 &&
                   (ReadXcr0() & kZmmState) == kZmmState;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.sha_ni = (ebx & (1u << 29)) != 0;
    // AVX512F (bit 16) and AVX512BW (bit 30).
    f.avx512 = os_zmm_state && (ebx & (1u << 16)) != 0 &&
               (ebx & (1u << 30)) != 0;
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

bool ForceScalarCrypto() {
  static const bool force = [] {
    const char* env = std::getenv("MEDVAULT_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' && strcmp(env, "0") != 0;
  }();
  return force;
}

}  // namespace medvault::crypto
