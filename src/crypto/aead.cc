#include "crypto/aead.h"

#include <cstring>

#include "common/coding.h"
#include "crypto/hkdf.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

Status Aead::Init(const Slice& key) {
  if (key.size() != kAes256KeySize) {
    return Status::InvalidArgument("AEAD key must be 32 bytes");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::string okm,
                            HkdfSha256(key, Slice(), "medvault-aead-v1", 64));
  MEDVAULT_RETURN_IF_ERROR(ctr_.Init(Slice(okm.data(), 32)));
  mac_.emplace(Slice(okm.data() + 32, 32));
  return Status::OK();
}

std::string Aead::ComputeTag(const Slice& nonce, const Slice& ciphertext,
                             const Slice& aad) const {
  char aad_length[8];
  EncodeFixed64(aad_length, aad.size());
  return mac_->Mac(
      {Slice(aad_length, sizeof(aad_length)), aad, nonce, ciphertext});
}

Result<std::string> Aead::Seal(const Slice& nonce, const Slice& plaintext,
                               const Slice& aad) const {
  if (!mac_) return Status::FailedPrecondition("Aead not initialized");
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 16 bytes");
  }
  // nonce || ciphertext || tag in one buffer, the ciphertext written in
  // place.
  std::string out(nonce.size() + plaintext.size() + kDigestSize, '\0');
  char* ciphertext = out.data() + nonce.size();
  std::memcpy(out.data(), nonce.data(), nonce.size());
  MEDVAULT_RETURN_IF_ERROR(ctr_.CryptInto(nonce, plaintext, ciphertext));
  const std::string tag =
      ComputeTag(nonce, Slice(ciphertext, plaintext.size()), aad);
  std::memcpy(ciphertext + plaintext.size(), tag.data(), kDigestSize);
  return out;
}

Result<std::string> Aead::Open(const Slice& sealed, const Slice& aad) const {
  if (!mac_) return Status::FailedPrecondition("Aead not initialized");
  if (sealed.size() < kOverhead) {
    return Status::TamperDetected("sealed blob shorter than AEAD overhead");
  }
  Slice nonce(sealed.data(), kCtrNonceSize);
  Slice ciphertext(sealed.data() + kCtrNonceSize,
                   sealed.size() - kOverhead);
  Slice tag(sealed.data() + sealed.size() - kDigestSize, kDigestSize);

  std::string expected = ComputeTag(nonce, ciphertext, aad);
  if (!ConstantTimeEqual(expected, tag)) {
    return Status::TamperDetected("AEAD tag mismatch");
  }
  return ctr_.Crypt(nonce, ciphertext);
}

}  // namespace medvault::crypto
