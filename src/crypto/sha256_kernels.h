#ifndef MEDVAULT_CRYPTO_SHA256_KERNELS_H_
#define MEDVAULT_CRYPTO_SHA256_KERNELS_H_

// Internal SHA-256 compression kernels behind the dispatched public
// Sha256 class. Exposed so the differential tests and benches can pin a
// specific implementation; application code should use crypto/sha256.h.

#include <cstddef>
#include <cstdint>

namespace medvault::crypto::internal {

/// Round constants K (FIPS 180-4 section 4.2.2).
inline constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// Compresses `nblocks` consecutive 64-byte blocks into `state`.
using Sha256BlockFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                               size_t nblocks);

/// Portable fallback: word-aligned loads (memcpy + bswap), unrolled
/// rounds. Correct on every target.
void Sha256BlocksScalar(uint32_t state[8], const uint8_t* blocks,
                        size_t nblocks);

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SHA_NI)
/// SHA-NI kernel (requires SHA + SSSE3 + SSE4.1 at runtime).
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* blocks,
                       size_t nblocks);
#endif

/// The kernel the process-wide dispatch selected (honors
/// MEDVAULT_FORCE_SCALAR and CPU detection).
Sha256BlockFn ActiveSha256Kernel();

/// True when ActiveSha256Kernel() is a hardware-accelerated kernel.
bool Sha256Accelerated();

/// Independent SHA-256 streams one lanes kernel call compresses.
constexpr int kSha256Lanes = 16;

/// Compresses `nblocks` consecutive 64-byte blocks into each of
/// kSha256Lanes independent states, in lock-step: lane i updates
/// `states[i]` from the blocks at `blocks + i * stride`. The lane
/// offsets must fit in an int32 ((kSha256Lanes - 1) * stride < 2^31).
using Sha256LanesFn = void (*)(uint32_t (*states)[8], const uint8_t* blocks,
                               size_t stride, size_t nblocks);

/// Portable fallback: one ActiveSha256Kernel() call per lane.
void Sha256LanesLoop(uint32_t (*states)[8], const uint8_t* blocks,
                     size_t stride, size_t nblocks);

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)
/// AVX-512 kernel (requires AVX-512 F + BW and OS zmm state at
/// runtime): one zmm register holds one message or state word of all
/// 16 lanes.
void Sha256LanesAvx512(uint32_t (*states)[8], const uint8_t* blocks,
                       size_t stride, size_t nblocks);
#endif

/// The lanes kernel the process-wide dispatch selected: the AVX-512
/// kernel when built, detected and not pinned off by
/// MEDVAULT_FORCE_SCALAR, otherwise Sha256LanesLoop.
Sha256LanesFn ActiveSha256LanesKernel();

}  // namespace medvault::crypto::internal

#endif  // MEDVAULT_CRYPTO_SHA256_KERNELS_H_
