#include "crypto/wots.h"

#include <cstring>

#include "common/coding.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {

Wots::Wots(const Slice& secret_seed, const Slice& public_seed,
           uint32_t leaf_index)
    : public_seed_(public_seed.ToString()), leaf_index_(leaf_index) {
  // Chain secret i is the PRF HMAC(secret_seed, "wots-sk" || leaf || i);
  // the key's pads are absorbed once for all kLen chains.
  const HmacSha256Key prf(secret_seed);
  char msg[15] = "wots-sk";  // || leaf || chain
  EncodeFixed32(msg + 7, leaf_index);
  secret_chains_.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    EncodeFixed32(msg + 11, static_cast<uint32_t>(i));
    secret_chains_.push_back(prf.Mac(Slice(msg, sizeof(msg))));
  }
}

std::string Wots::Chain(const Slice& public_seed, uint32_t leaf_index,
                        int chain_index, int start, int steps,
                        const Slice& value) {
  // Step j hashes "wots-chain" || public_seed || leaf || chain || j ||
  // value. The padded message is laid out once; each step rewrites j,
  // compresses from the IV and writes its digest into the value slot
  // the next step hashes.
  constexpr char kTag[] = "wots-chain";
  constexpr size_t kTagLen = sizeof(kTag) - 1;
  const size_t step_at = kTagLen + public_seed.size() + 8;
  const size_t value_at = step_at + 4;
  const size_t len = value_at + kN;
  std::string msg(Sha256PaddedSize(len), '\0');
  auto* block = reinterpret_cast<uint8_t*>(msg.data());
  memcpy(block, kTag, kTagLen);
  memcpy(block + kTagLen, public_seed.data(), public_seed.size());
  EncodeFixed32(msg.data() + step_at - 8, leaf_index);
  EncodeFixed32(msg.data() + step_at - 4, static_cast<uint32_t>(chain_index));
  memcpy(block + value_at, value.data(), kN);
  Sha256Pad(block, len, len);

  const internal::Sha256BlockFn compress = internal::ActiveSha256Kernel();
  const size_t nblocks = msg.size() / 64;
  for (int j = start; j < start + steps; j++) {
    EncodeFixed32(msg.data() + step_at, static_cast<uint32_t>(j));
    uint32_t state[8];
    memcpy(state, kSha256Iv, sizeof(state));
    compress(state, block, nblocks);
    Sha256StateToDigest(state, block + value_at);
  }
  return msg.substr(value_at, kN);
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

std::string Wots::PublicKey() const {
  Sha256 h;
  h.Update("wots-pk");
  for (int i = 0; i < kLen; i++) {
    h.Update(Chain(public_seed_, leaf_index_, i, 0, kW - 1,
                   secret_chains_[i]));
  }
  return h.Finish();
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
