#include "crypto/cpu_features.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define MEDVAULT_CPU_X86 1
#elif defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#define MEDVAULT_CPU_AARCH64 1
#endif

namespace medvault::crypto {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(MEDVAULT_CPU_X86)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    f.sse42 = (ecx & (1u << 20)) != 0;
    f.aes_ni = (ecx & (1u << 25)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.sha_ni = (ebx & (1u << 29)) != 0;
  }
#elif defined(MEDVAULT_CPU_AARCH64)
  // HWCAP bits per arch/arm64/include/uapi/asm/hwcap.h.
  unsigned long hwcap = getauxval(AT_HWCAP);
  constexpr unsigned long kHwcapAes = 1ul << 3;
  constexpr unsigned long kHwcapSha2 = 1ul << 6;
  f.aes_ni = (hwcap & kHwcapAes) != 0;
  f.sha_ni = (hwcap & kHwcapSha2) != 0;
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
