#ifndef MEDVAULT_CRYPTO_CPU_FEATURES_H_
#define MEDVAULT_CRYPTO_CPU_FEATURES_H_

namespace medvault::crypto {

/// Instruction-set extensions relevant to the crypto hot path and the
/// CRC-32C log checksum (common/crc32c), probed once at startup with
/// CPUID. Other architectures report none and run the portable kernels.
struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool sse42 = false;    ///< x86 SSE4.2 (the crc32 instruction)
  bool aes_ni = false;   ///< x86 AES-NI
  bool sha_ni = false;   ///< x86 SHA extensions
  /// x86 AVX-512 F + BW, with the OS saving the opmask and zmm state.
  bool avx512 = false;
};

/// Cached runtime detection result.
const CpuFeatures& GetCpuFeatures();

/// True when the MEDVAULT_FORCE_SCALAR environment variable is set to a
/// non-empty value other than "0" — pins every primitive, CRC-32C
/// included, to the scalar fallback for differential testing. Read once
/// at first use.
bool ForceScalarCrypto();

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_CPU_FEATURES_H_
