#include "crypto/wots.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {

namespace {

// Chain secret `chain` of leaf `leaf` is the PRF HMAC(secret_seed,
// "wots-sk" || leaf || chain); this writes its kSecretMessageLen-byte
// message.
constexpr size_t kSecretMessageLen = 15;
static_assert(kSecretMessageLen <= 55, "MacLanes takes one-block messages");
void WriteSecretMessage(uint8_t* msg, uint32_t leaf, int chain) {
  memcpy(msg, "wots-sk", 7);
  EncodeFixed32(reinterpret_cast<char*>(msg) + 7, leaf);
  EncodeFixed32(reinterpret_cast<char*>(msg) + 11,
                static_cast<uint32_t>(chain));
}

// Chain step j hashes "wots-chain" || public_seed || leaf || chain || j
// || value. The padded message is laid out once per chain; each step
// rewrites j, compresses from the IV and writes its digest into the
// value slot the next step hashes.
class ChainMessage {
 public:
  explicit ChainMessage(size_t seed_len)
      : step_at_(kTagLen + seed_len + 8),
        value_at_(step_at_ + 4),
        size_(Sha256PaddedSize(value_at_ + Wots::kN)) {}

  /// Padded bytes of one message: whole 64-byte blocks.
  size_t size() const { return size_; }

  /// Lays out the message of (leaf, chain) at `block` with `value` (kN
  /// bytes) in the value slot.
  void Write(uint8_t* block, const Slice& public_seed, uint32_t leaf,
             int chain, const uint8_t* value) const {
    memcpy(block, kTag, kTagLen);
    memcpy(block + kTagLen, public_seed.data(), public_seed.size());
    auto* p = reinterpret_cast<char*>(block);
    EncodeFixed32(p + step_at_ - 8, leaf);
    EncodeFixed32(p + step_at_ - 4, static_cast<uint32_t>(chain));
    memcpy(block + value_at_, value, Wots::kN);
    Sha256Pad(block, value_at_ + Wots::kN, value_at_ + Wots::kN);
  }

  /// Sets step j and the IV, ready for the compression of step j.
  void BeginStep(uint8_t* block, int j, uint32_t state[8]) const {
    EncodeFixed32(reinterpret_cast<char*>(block) + step_at_,
                  static_cast<uint32_t>(j));
    memcpy(state, kSha256Iv, sizeof(kSha256Iv));
  }

  /// Writes the step's digest into the value slot.
  void EndStep(uint8_t* block, const uint32_t state[8]) const {
    Sha256StateToDigest(state, block + value_at_);
  }

  /// The value slot: the chain value after the last step written.
  Slice Value(const uint8_t* block) const {
    return Slice(reinterpret_cast<const char*>(block) + value_at_, Wots::kN);
  }

 private:
  static constexpr char kTag[] = "wots-chain";
  static constexpr size_t kTagLen = sizeof(kTag) - 1;

  size_t step_at_;
  size_t value_at_;
  size_t size_;
};

}  // namespace

Wots::Wots(const Slice& secret_seed, const Slice& public_seed,
           uint32_t leaf_index)
    : public_seed_(public_seed.ToString()), leaf_index_(leaf_index) {
  // The key's pads are absorbed once for all kLen chain secrets.
  const HmacSha256Key prf(secret_seed);
  uint8_t msg[kSecretMessageLen] = {};
  secret_chains_.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    WriteSecretMessage(msg, leaf_index, i);
    secret_chains_.push_back(
        prf.Mac(Slice(reinterpret_cast<char*>(msg), sizeof(msg))));
  }
}

std::string Wots::Chain(const Slice& public_seed, uint32_t leaf_index,
                        int chain_index, int start, int steps,
                        const Slice& value) {
  const ChainMessage layout(public_seed.size());
  std::string msg(layout.size(), '\0');
  auto* block = reinterpret_cast<uint8_t*>(msg.data());
  layout.Write(block, public_seed, leaf_index, chain_index,
               reinterpret_cast<const uint8_t*>(value.data()));

  const internal::Sha256BlockFn compress = internal::ActiveSha256Kernel();
  const size_t nblocks = layout.size() / 64;
  for (int j = start; j < start + steps; j++) {
    uint32_t state[8];
    layout.BeginStep(block, j, state);
    compress(state, block, nblocks);
    layout.EndStep(block, state);
  }
  return layout.Value(block).ToString();
}

std::vector<std::string> Wots::PublicKeys(const Slice& secret_seed,
                                          const Slice& public_seed,
                                          uint32_t first_leaf,
                                          uint32_t count) {
  constexpr int kLanes = internal::kSha256Lanes;
  const HmacSha256Key prf(secret_seed);
  const ChainMessage layout(public_seed.size());
  const size_t nblocks = layout.size() / 64;
  const internal::Sha256LanesFn compress =
      internal::ActiveSha256LanesKernel();

  // Lane i walks the message at lanes[i * layout.size()]. In a short
  // last batch the idle lanes rehash stale bytes nobody reads.
  std::vector<uint8_t> lanes(kLanes * layout.size());
  uint32_t states[kLanes][8] = {};
  uint8_t secret_messages[kLanes][kSecretMessageLen] = {};
  uint8_t secrets[kLanes][kN] = {};
  std::vector<std::string> keys;
  keys.reserve(count);
  Sha256 pk;
  pk.Update("wots-pk");

  // Chains in leaf-major order: chain c of leaf first_leaf + l is
  // number l * kLen + c.
  auto leaf_of = [&](uint64_t n) {
    return static_cast<uint32_t>(first_leaf + n / kLen);
  };
  auto chain_of = [](uint64_t n) { return static_cast<int>(n % kLen); };
  const uint64_t total = static_cast<uint64_t>(count) * kLen;
  for (uint64_t batch = 0; batch < total; batch += kLanes) {
    const int busy =
        static_cast<int>(std::min<uint64_t>(kLanes, total - batch));
    for (int i = 0; i < busy; i++) {
      WriteSecretMessage(secret_messages[i], leaf_of(batch + i),
                         chain_of(batch + i));
    }
    prf.MacLanes(secret_messages[0], kSecretMessageLen, kSecretMessageLen,
                 secrets[0]);
    for (int i = 0; i < busy; i++) {
      layout.Write(&lanes[i * layout.size()], public_seed, leaf_of(batch + i),
                   chain_of(batch + i), secrets[i]);
    }
    for (int j = 0; j < kW - 1; j++) {
      for (int i = 0; i < kLanes; i++) {
        layout.BeginStep(&lanes[i * layout.size()], j, states[i]);
      }
      compress(states, lanes.data(), layout.size(), nblocks);
      for (int i = 0; i < kLanes; i++) {
        layout.EndStep(&lanes[i * layout.size()], states[i]);
      }
    }
    for (int i = 0; i < busy; i++) {
      pk.Update(layout.Value(&lanes[i * layout.size()]));
      if (chain_of(batch + i) == kLen - 1) {
        keys.push_back(pk.Finish());
        pk.Reset();
        pk.Update("wots-pk");
      }
    }
  }
  return keys;
}

Result<std::vector<int>> Wots::Digits(const Slice& digest) {
  if (digest.size() != kN) {
    return Status::InvalidArgument("WOTS signs 32-byte digests only");
  }
  std::vector<int> digits;
  digits.reserve(kLen);
  // Message digits: two base-16 digits per byte.
  for (int i = 0; i < kN; i++) {
    auto byte = static_cast<unsigned char>(digest[i]);
    digits.push_back(byte >> 4);
    digits.push_back(byte & 0xf);
  }
  // Checksum: sum of (w-1 - digit), encoded base-w in kLen2 digits.
  int checksum = 0;
  for (int d : digits) checksum += (kW - 1) - d;
  for (int i = kLen2 - 1; i >= 0; i--) {
    digits.push_back((checksum >> (4 * i)) & 0xf);
  }
  return digits;
}

Result<Wots::Signature> Wots::Sign(const Slice& digest) const {
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<int> digits, Digits(digest));
  Signature sig;
  sig.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    sig.push_back(Chain(public_seed_, leaf_index_, i, 0, digits[i],
                        secret_chains_[i]));
  }
  return sig;
}

Result<std::string> Wots::PublicKeyFromSignature(const Slice& digest,
                                                 const Signature& sig,
                                                 const Slice& public_seed,
                                                 uint32_t leaf_index) {
  if (static_cast<int>(sig.size()) != kLen) {
    return Status::InvalidArgument("WOTS signature has wrong chain count");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<int> digits, Digits(digest));
  Sha256 h;
  h.Update("wots-pk");
  for (int i = 0; i < kLen; i++) {
    if (sig[i].size() != kN) {
      return Status::InvalidArgument("WOTS signature chain has wrong size");
    }
    h.Update(Chain(public_seed, leaf_index, i, digits[i],
                   (kW - 1) - digits[i], sig[i]));
  }
  return h.Finish();
}

Status Wots::Verify(const Slice& digest, const Signature& sig,
                    const Slice& public_key, const Slice& public_seed,
                    uint32_t leaf_index) {
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string pk,
      PublicKeyFromSignature(digest, sig, public_seed, leaf_index));
  if (!ConstantTimeEqual(pk, public_key)) {
    return Status::TamperDetected("WOTS signature does not verify");
  }
  return Status::OK();
}

std::string Wots::EncodeSignature(const Signature& sig) {
  std::string out;
  out.reserve(sig.size() * kN);
  for (const std::string& chain : sig) out.append(chain);
  return out;
}

Result<Wots::Signature> Wots::DecodeSignature(const Slice& data) {
  if (data.size() != static_cast<size_t>(kLen) * kN) {
    return Status::InvalidArgument("encoded WOTS signature has wrong size");
  }
  Signature sig;
  sig.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    sig.emplace_back(data.data() + i * kN, kN);
  }
  return sig;
}

}  // namespace medvault::crypto
