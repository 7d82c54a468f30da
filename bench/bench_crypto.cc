// E9 — crypto primitive throughput: the overhead budget behind every
// other experiment. SHA-256, HMAC, AES-CTR, AEAD, Merkle operations,
// WOTS/XMSS signing & verification, XMSS key generation vs height, and
// the CRC-32C that guards every log frame.

// Run with MEDVAULT_FORCE_SCALAR=1 to measure the portable fallback
// kernels; the default run uses whatever the CPU dispatch selected
// (SHA-NI / AES-NI / SSE4.2 crc32 / the AVX-512 16-lane SHA-256 where
// available).

#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "common/crc32c.h"
#include "crypto/aead.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/wots.h"
#include "crypto/xmss.h"

namespace medvault::bench {
namespace {

using namespace medvault::crypto;
using namespace medvault::crypto::internal;  // raw SHA-256 block kernels

void BM_Sha256(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

// Raw block-kernel comparison: the runtime-dispatched kernel against the
// scalar fallback, in the same process (the E9 accelerated-vs-scalar
// row without needing a MEDVAULT_FORCE_SCALAR rerun).
void RunSha256Kernel(benchmark::State& state, Sha256BlockFn fn) {
  const size_t nblocks = static_cast<size_t>(state.range(0));
  std::string blocks(nblocks * 64, 'x');
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    fn(h, reinterpret_cast<const uint8_t*>(blocks.data()), nblocks);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(nblocks * 64));
}
void BM_Sha256KernelActive(benchmark::State& state) {
  RunSha256Kernel(state, ActiveSha256Kernel());
}
void BM_Sha256KernelScalar(benchmark::State& state) {
  RunSha256Kernel(state, &Sha256BlocksScalar);
}
BENCHMARK(BM_Sha256KernelActive)->Arg(1024);
BENCHMARK(BM_Sha256KernelScalar)->Arg(1024);

// 16 streams of two-block messages in lock-step, the shape of the WOTS
// chain steps of XMSS key generation: the dispatched lanes kernel
// (AVX-512 where available) against the loop of single-stream calls.
// `lane_block` is the time per 64-byte block of one lane.
void RunSha256Lanes(benchmark::State& state, Sha256LanesFn fn) {
  constexpr size_t kStride = 128;
  constexpr size_t kBlocks = 2;
  std::string blocks(kSha256Lanes * kStride, 'x');
  uint32_t h[kSha256Lanes][8] = {};
  for (auto _ : state) {
    fn(h, reinterpret_cast<const uint8_t*>(blocks.data()), kStride, kBlocks);
    benchmark::DoNotOptimize(h);
  }
  state.counters["lane_block"] = benchmark::Counter(
      static_cast<double>(kSha256Lanes * kBlocks),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
void BM_Sha256LanesActive(benchmark::State& state) {
  RunSha256Lanes(state, ActiveSha256LanesKernel());
}
void BM_Sha256LanesLoop(benchmark::State& state) {
  RunSha256Lanes(state, &Sha256LanesLoop);
}
BENCHMARK(BM_Sha256LanesActive);
BENCHMARK(BM_Sha256LanesLoop);

// Log frames, the scrub and every replay checksum their bytes with this.
void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(32768);

void BM_HmacSha256(benchmark::State& state) {
  std::string key(32, 'k');
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_AesCtr(benchmark::State& state) {
  AesCtr ctr;
  (void)ctr.Init(std::string(32, 'k'));
  std::string nonce(16, 'n');
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr.Crypt(nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(64)->Arg(4096)->Arg(65536);

void BM_AeadSeal(benchmark::State& state) {
  Aead aead;
  (void)aead.Init(std::string(32, 'k'));
  std::string nonce(16, 'n');
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Seal(nonce, data, "aad"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(4096)->Arg(65536);

void BM_AeadOpen(benchmark::State& state) {
  Aead aead;
  (void)aead.Init(std::string(32, 'k'));
  std::string nonce(16, 'n');
  std::string data(state.range(0), 'x');
  std::string sealed = *aead.Seal(nonce, data, "aad");
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Open(sealed, "aad"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 32 B is a wrapped data key: the keystore opens one per key on start.
BENCHMARK(BM_AeadOpen)->Arg(32)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MerkleAppendAndRoot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MerkleTree tree;
    for (int i = 0; i < n; i++) tree.Append("leaf");
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MerkleAppendAndRoot)->Arg(256)->Arg(4096);

void BM_MerkleInclusionProof(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MerkleTree tree;
  for (int i = 0; i < n; i++) tree.Append("leaf-" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.InclusionProof(n / 2, n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleInclusionProof)->Arg(1024)->Arg(16384);

void BM_WotsSign(benchmark::State& state) {
  Wots wots("secret-seed", "public-seed", 0);
  std::string digest = Sha256Digest("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(wots.Sign(digest));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
  Wots wots("secret-seed", "public-seed", 0);
  std::string digest = Sha256Digest("message");
  auto sig = *wots.Sign(digest);
  std::string pk = Wots::PublicKeys("secret-seed", "public-seed", 0, 1)[0];
  for (auto _ : state) {
    Status s = Wots::Verify(digest, sig, pk, "public-seed", 0);
    if (!s.ok()) state.SkipWithError("verify failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WotsVerify);

void BM_XmssKeygen(benchmark::State& state) {
  const int height = static_cast<int>(state.range(0));
  for (auto _ : state) {
    XmssSigner signer("secret", "public", height);
    benchmark::DoNotOptimize(signer.public_key());
  }
  state.counters["signatures"] = static_cast<double>(1 << height);
}
// Height 8 is the shape of every vault signer and per-shard witness key.
BENCHMARK(BM_XmssKeygen)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The reopen path: the same tree rebuilt from its stored leaves, which
// hashes only the 2^h - 1 inner nodes (what Vault::Open pays when
// signer.tree is intact).
void BM_XmssSignerFromLeaves(benchmark::State& state) {
  const int height = static_cast<int>(state.range(0));
  const XmssSigner keygen("secret", "public", height);
  for (auto _ : state) {
    XmssSigner signer("secret", "public", height, keygen.leaves());
    benchmark::DoNotOptimize(signer.public_key());
  }
  state.counters["signatures"] = static_cast<double>(1 << height);
}
BENCHMARK(BM_XmssSignerFromLeaves)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_XmssSign(benchmark::State& state) {
  XmssSigner signer("secret", "public", 10);  // 1024 signatures
  for (auto _ : state) {
    auto sig = signer.Sign("audit checkpoint payload");
    if (!sig.ok()) {
      state.SkipWithError("signer exhausted");
      return;
    }
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XmssSign)->Iterations(64);

void BM_XmssVerify(benchmark::State& state) {
  XmssSigner signer("secret", "public", 4);
  auto sig = *signer.Sign("payload");
  for (auto _ : state) {
    Status s = XmssSigner::Verify("payload", sig, signer.public_key(),
                                  "public", 4);
    if (!s.ok()) state.SkipWithError("verify failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XmssVerify);

}  // namespace
}  // namespace medvault::bench

int main(int argc, char** argv) {
  return medvault::bench::RunBenchmarkMain("crypto", argc, argv);
}
