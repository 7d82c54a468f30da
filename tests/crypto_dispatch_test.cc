// Differential tests for the CPU-dispatched crypto kernels: whatever
// block kernel the runtime dispatch selected (SHA-NI / AES-NI or the
// portable fallback) must be byte-identical to the scalar implementation
// on NIST vectors, every message length up to 1 KiB, and multi-block
// state evolution. Run with MEDVAULT_FORCE_SCALAR=1 to pin both sides
// to the fallback (the comparisons then degenerate to self-consistency,
// while the known-answer tests still check the spec).
//
// The 16-lane SHA-256 kernel that builds XMSS keys is held to 16
// single-stream calls; the AVX-512 lanes kernel is also called directly
// whenever the CPU has it, so it is compared even when the dispatch is
// pinned to the loop.
//
// The CRC-32C log checksum is held to its table kernel the same way; the
// SSE4.2 kernel is also called directly whenever the CPU has it, so it
// is compared even when the dispatch is pinned to the table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/aes_kernels.h"
#include "crypto/cpu_features.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {
namespace {

using internal::ActiveSha256Kernel;
using internal::ActiveSha256LanesKernel;
using internal::kSha256Lanes;
using internal::Sha256BlockFn;
using internal::Sha256BlocksScalar;
using internal::Sha256LanesFn;
using internal::Sha256LanesLoop;

// FIPS 180-4 initial hash values.
constexpr uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                             0x1f83d9ab, 0x5be0cd19};

// Full SHA-256 built directly on one block kernel: pad per FIPS 180-4,
// compress, serialize. Lets the test drive the dispatched and scalar
// kernels over identical messages, independent of the public class.
std::string DigestWithKernel(Sha256BlockFn fn, const std::string& msg) {
  std::string padded = msg;
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; i--) {
    padded.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
  uint32_t h[8];
  std::memcpy(h, kIv, sizeof(h));
  fn(h, reinterpret_cast<const uint8_t*>(padded.data()),
     padded.size() / 64);
  std::string digest(kDigestSize, '\0');
  for (int i = 0; i < 8; i++) {
    digest[4 * i + 0] = static_cast<char>((h[i] >> 24) & 0xff);
    digest[4 * i + 1] = static_cast<char>((h[i] >> 16) & 0xff);
    digest[4 * i + 2] = static_cast<char>((h[i] >> 8) & 0xff);
    digest[4 * i + 3] = static_cast<char>(h[i] & 0xff);
  }
  return digest;
}

// Deterministic bytes so failures reproduce (xorshift64).
class Prng {
 public:
  explicit Prng(uint64_t seed) : s_(seed) {}
  uint8_t NextByte() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return static_cast<uint8_t>(s_ & 0xff);
  }
  std::string NextBytes(size_t n) {
    std::string out(n, '\0');
    for (size_t i = 0; i < n; i++) out[i] = static_cast<char>(NextByte());
    return out;
  }

 private:
  uint64_t s_;
};

TEST(Sha256DispatchTest, KernelsMatchNistVectorsExactly) {
  struct Vector {
    std::string msg;
    const char* hex;
  };
  const Vector kVectors[] = {
      {"",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  Sha256BlockFn active = ActiveSha256Kernel();
  for (const Vector& v : kVectors) {
    EXPECT_EQ(HexEncode(DigestWithKernel(active, v.msg)), v.hex);
    EXPECT_EQ(HexEncode(DigestWithKernel(&Sha256BlocksScalar, v.msg)),
              v.hex);
    EXPECT_EQ(HexEncode(Sha256Digest(v.msg)), v.hex);
  }
}

TEST(Sha256DispatchTest, KernelsMatchOnEveryLengthUpTo1KiB) {
  Prng prng(0x9e3779b97f4a7c15ull);
  Sha256BlockFn active = ActiveSha256Kernel();
  for (size_t len = 0; len <= 1024; len++) {
    std::string msg = prng.NextBytes(len);
    std::string a = DigestWithKernel(active, msg);
    ASSERT_EQ(a, DigestWithKernel(&Sha256BlocksScalar, msg))
        << "kernel divergence at len=" << len;
    ASSERT_EQ(a, Sha256Digest(msg)) << "public API diverged at len=" << len;
  }
}

TEST(Sha256DispatchTest, KernelsEvolveIdenticalStateAcrossBlockRuns) {
  // Start from a non-IV chaining state and push 1..9 blocks through both
  // kernels in one call each; the eight state words must match bit-for-
  // bit. This exercises the multi-block loop (and the SHA-NI kernel's
  // state (re)packing) rather than just one compression.
  Prng prng(0xdeadbeefcafef00dull);
  for (size_t nblocks = 1; nblocks <= 9; nblocks++) {
    uint32_t ha[8];
    uint32_t hs[8];
    for (int i = 0; i < 8; i++) {
      ha[i] = hs[i] = kIv[i] ^ static_cast<uint32_t>(0x01010101u * nblocks);
    }
    std::string blocks = prng.NextBytes(nblocks * 64);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(blocks.data());
    ActiveSha256Kernel()(ha, p, nblocks);
    Sha256BlocksScalar(hs, p, nblocks);
    for (int i = 0; i < 8; i++) {
      ASSERT_EQ(ha[i], hs[i]) << "word " << i << " nblocks=" << nblocks;
    }
  }
}

// Every lanes kernel this build and CPU can run, and the dispatched one.
std::vector<Sha256LanesFn> LanesKernelsUnderTest() {
  std::vector<Sha256LanesFn> kernels = {ActiveSha256LanesKernel(),
                                        &Sha256LanesLoop};
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)
  if (GetCpuFeatures().avx512) {
    kernels.push_back(&internal::Sha256LanesAvx512);
  }
#endif
  return kernels;
}

TEST(Sha256LanesDispatchTest, LanesMatchSingleStreamCalls) {
  // Each lane gets its own random blocks and random starting state; the
  // lane stride is not a multiple of 64 (nor of 4), so lanes start at
  // every byte offset. All 16 lanes must equal one scalar call each.
  Prng prng(0x452821e638d01377ull);
  for (size_t stride : {size_t{4 * 64 + 13}, size_t{300}}) {
    for (size_t nblocks = 1; nblocks <= 4; nblocks++) {
      const std::string buf = prng.NextBytes(stride * kSha256Lanes);
      const auto* blocks = reinterpret_cast<const uint8_t*>(buf.data());
      uint32_t start[kSha256Lanes][8];
      for (auto& lane : start) {
        for (uint32_t& word : lane) {
          for (int b = 0; b < 4; b++) word = (word << 8) | prng.NextByte();
        }
      }
      uint32_t expected[kSha256Lanes][8];
      std::memcpy(expected, start, sizeof(start));
      for (int i = 0; i < kSha256Lanes; i++) {
        Sha256BlocksScalar(expected[i], blocks + i * stride, nblocks);
      }
      for (Sha256LanesFn kernel : LanesKernelsUnderTest()) {
        uint32_t got[kSha256Lanes][8];
        std::memcpy(got, start, sizeof(start));
        kernel(got, blocks, stride, nblocks);
        for (int i = 0; i < kSha256Lanes; i++) {
          for (int k = 0; k < 8; k++) {
            ASSERT_EQ(got[i][k], expected[i][k])
                << "stride=" << stride << " nblocks=" << nblocks
                << " lane=" << i << " word=" << k;
          }
        }
      }
    }
  }
}

TEST(AesDispatchTest, Fips197KnownAnswers) {
  // FIPS 197 appendix C known answers pin whichever kernel the dispatch
  // selected to the spec itself, not just to the other implementation.
  const std::string pt = *HexDecode("00112233445566778899aabbccddeeff");
  {
    Aes aes;
    ASSERT_TRUE(aes.Init(*HexDecode("000102030405060708090a0b0c0d0e0f"))
                    .ok());
    uint8_t ct[16];
    aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
    EXPECT_EQ(HexEncode(std::string(reinterpret_cast<char*>(ct), 16)),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
  }
  {
    Aes aes;
    ASSERT_TRUE(
        aes.Init(*HexDecode("000102030405060708090a0b0c0d0e0f"
                            "101112131415161718191a1b1c1d1e1f"))
            .ok());
    uint8_t ct[16];
    aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
    EXPECT_EQ(HexEncode(std::string(reinterpret_cast<char*>(ct), 16)),
              "8ea2b7ca516745bfeafc49904b496089");
  }
}

TEST(AesDispatchTest, EncryptBlocksMatchesSingleBlockCalls) {
  // The AES-NI kernel pipelines four blocks per iteration; every span
  // length (including the 1..3-block tail) must equal the single-block
  // path, and decryption must round-trip each block.
  Prng prng(0x1234567890abcdefull);
  for (size_t key_size : {kAes128KeySize, kAes256KeySize}) {
    Aes aes;
    ASSERT_TRUE(aes.Init(prng.NextBytes(key_size)).ok());
    for (size_t nblocks : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 33u}) {
      std::string in = prng.NextBytes(nblocks * kAesBlockSize);
      const uint8_t* inp = reinterpret_cast<const uint8_t*>(in.data());

      std::vector<uint8_t> bulk(nblocks * kAesBlockSize);
      aes.EncryptBlocks(inp, bulk.data(), nblocks);

      std::vector<uint8_t> single(nblocks * kAesBlockSize);
      for (size_t b = 0; b < nblocks; b++) {
        aes.EncryptBlock(inp + b * kAesBlockSize,
                         single.data() + b * kAesBlockSize);
      }
      ASSERT_EQ(std::memcmp(bulk.data(), single.data(), bulk.size()), 0)
          << "key_size=" << key_size << " nblocks=" << nblocks;

      for (size_t b = 0; b < nblocks; b++) {
        uint8_t round_trip[16];
        aes.DecryptBlock(bulk.data() + b * kAesBlockSize, round_trip);
        ASSERT_EQ(std::memcmp(round_trip, inp + b * kAesBlockSize, 16), 0)
            << "block " << b;
      }
    }
  }
}

TEST(AesDispatchTest, EncryptBlocksAllowsInPlaceOperation) {
  Prng prng(0x0f0f0f0f0f0f0f0full);
  Aes aes;
  ASSERT_TRUE(aes.Init(prng.NextBytes(kAes256KeySize)).ok());
  const size_t nblocks = 9;
  std::string in = prng.NextBytes(nblocks * kAesBlockSize);

  std::vector<uint8_t> expected(nblocks * kAesBlockSize);
  aes.EncryptBlocks(reinterpret_cast<const uint8_t*>(in.data()),
                    expected.data(), nblocks);

  std::vector<uint8_t> inplace(in.begin(), in.end());
  aes.EncryptBlocks(inplace.data(), inplace.data(), nblocks);
  EXPECT_EQ(std::memcmp(inplace.data(), expected.data(), expected.size()),
            0);
}

// Every CRC-32C kernel this build and CPU can run, and the dispatched
// entry point; each must agree with the table kernel.
std::vector<crc32c::internal::ExtendFn> CrcKernelsUnderTest() {
  std::vector<crc32c::internal::ExtendFn> kernels = {&crc32c::Extend};
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42)
  if (GetCpuFeatures().sse42) {
    kernels.push_back(&crc32c::internal::ExtendSse42);
  }
#endif
  return kernels;
}

TEST(Crc32cDispatchTest, KnownAnswers) {
  // "123456789" is the catalogue check value; the 32-byte vectors are
  // RFC 3720 (iSCSI) appendix B.4.
  std::string inc(32, '\0'), dec(32, '\0');
  for (int i = 0; i < 32; i++) {
    inc[i] = static_cast<char>(i);
    dec[i] = static_cast<char>(31 - i);
  }
  const struct {
    std::string data;
    uint32_t crc;
  } kVectors[] = {{"123456789", 0xe3069283u},
                  {std::string(32, '\0'), 0x8a9136aau},
                  {std::string(32, '\xff'), 0x62a8ab43u},
                  {inc, 0x46dd794eu},
                  {dec, 0x113fdb5cu}};
  for (const auto& v : kVectors) {
    EXPECT_EQ(crc32c::internal::ExtendTable(0, v.data.data(), v.data.size()),
              v.crc);
    for (auto kernel : CrcKernelsUnderTest()) {
      EXPECT_EQ(kernel(0, v.data.data(), v.data.size()), v.crc);
    }
  }
}

TEST(Crc32cDispatchTest, KernelsMatchTableOnEveryLengthAndAlignment) {
  // Lengths 0..4100 cover empty input, head-only and tail-only runs and
  // several 4 KiB pages of 8-byte steps; the eight start offsets cover
  // every head length the hardware kernel's alignment loop can take.
  Prng prng(0x243f6a8885a308d3ull);
  constexpr size_t kMaxLen = 4100;
  const std::string buf = prng.NextBytes(kMaxLen + 8);
  for (auto kernel : CrcKernelsUnderTest()) {
    for (size_t align = 0; align < 8; align++) {
      const char* p = buf.data() + align;
      for (size_t len = 0; len <= kMaxLen; len++) {
        ASSERT_EQ(kernel(0, p, len), crc32c::internal::ExtendTable(0, p, len))
            << "align=" << align << " len=" << len;
      }
    }
  }
}

TEST(Crc32cDispatchTest, ChainedExtendFromRandomStateMatchesTable) {
  // Log frames chain Extend calls (type byte, then payload); any 32-bit
  // state is a valid init_crc, and a split anywhere must not matter.
  Prng prng(0x13198a2e03707344ull);
  for (int trial = 0; trial < 200; trial++) {
    const size_t len = 1 + prng.NextByte() * 9;
    const size_t split = prng.NextByte() % (len + 1);
    const std::string data = prng.NextBytes(len);
    uint32_t init = 0;
    for (int i = 0; i < 4; i++) init = (init << 8) | prng.NextByte();
    const uint32_t whole =
        crc32c::internal::ExtendTable(init, data.data(), len);
    for (auto kernel : CrcKernelsUnderTest()) {
      ASSERT_EQ(kernel(init, data.data(), len), whole) << "trial " << trial;
      const uint32_t head = kernel(init, data.data(), split);
      ASSERT_EQ(kernel(head, data.data() + split, len - split), whole)
          << "trial " << trial << " split " << split;
    }
  }
}

TEST(Crc32cDispatchTest, MaskRoundTripsKernelOutput) {
  // Frames store Mask(crc); readers compare Unmask(stored) with the CRC
  // they compute, so a mask must round-trip every kernel's output.
  EXPECT_EQ(crc32c::Mask(0xe3069283u), 0xc78ab0e5u);
  Prng prng(0xa4093822299f31d0ull);
  for (int trial = 0; trial < 64; trial++) {
    const std::string data = prng.NextBytes(trial * 7);
    for (auto kernel : CrcKernelsUnderTest()) {
      const uint32_t crc = kernel(0, data.data(), data.size());
      const uint32_t masked = crc32c::Mask(crc);
      EXPECT_NE(masked, crc);
      EXPECT_EQ(crc32c::Unmask(masked), crc);
      EXPECT_EQ(crc32c::Unmask(masked),
                crc32c::internal::ExtendTable(0, data.data(), data.size()));
    }
  }
}

TEST(DispatchReportTest, AccelerationFlagsAreConsistent) {
  // ActiveSha256Kernel() must agree with the Sha256Accelerated() report:
  // accelerated implies the active kernel is not the scalar one.
  if (internal::Sha256Accelerated()) {
    EXPECT_NE(ActiveSha256Kernel(), &Sha256BlocksScalar);
  } else {
    EXPECT_EQ(ActiveSha256Kernel(), &Sha256BlocksScalar);
  }
  // AesAccelerated() has no kernel pointer to compare, but it must be
  // callable and stable across calls (dispatch happens once).
  EXPECT_EQ(internal::AesAccelerated(), internal::AesAccelerated());
  // CRC-32C uses the hardware kernel exactly when it was built, the CPU
  // has SSE4.2 and MEDVAULT_FORCE_SCALAR is off.
  crc32c::internal::ExtendFn expected = &crc32c::internal::ExtendTable;
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42)
  if (GetCpuFeatures().sse42 && !ForceScalarCrypto()) {
    expected = &crc32c::internal::ExtendSse42;
  }
#endif
  EXPECT_EQ(crc32c::internal::ActiveExtend(), expected);
  // The SHA-256 lanes kernel is AVX-512 exactly when it was built, the
  // CPU and OS support AVX-512 F/BW and MEDVAULT_FORCE_SCALAR is off.
  Sha256LanesFn expected_lanes = &Sha256LanesLoop;
#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AVX512)
  if (GetCpuFeatures().avx512 && !ForceScalarCrypto()) {
    expected_lanes = &internal::Sha256LanesAvx512;
  }
#endif
  EXPECT_EQ(ActiveSha256LanesKernel(), expected_lanes);
}

}  // namespace
}  // namespace medvault::crypto
