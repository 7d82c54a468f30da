#include "crypto/xmss.h"

#include "common/coding.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

std::string XmssSignature::Encode() const {
  std::string out;
  PutFixed32(&out, leaf_index);
  PutLengthPrefixed(&out, wots_signature);
  PutVarint32(&out, static_cast<uint32_t>(auth_path.size()));
  for (const std::string& node : auth_path) {
    PutLengthPrefixed(&out, node);
  }
  return out;
}

Result<XmssSignature> XmssSignature::Decode(const Slice& data) {
  Slice in = data;
  XmssSignature sig;
  uint32_t path_len = 0;
  if (!GetFixed32(&in, &sig.leaf_index) ||
      !GetLengthPrefixedString(&in, &sig.wots_signature) ||
      !GetVarint32(&in, &path_len)) {
    return Status::Corruption("malformed XMSS signature");
  }
  if (path_len > 64) {
    return Status::Corruption("XMSS auth path implausibly long");
  }
  sig.auth_path.reserve(path_len);
  for (uint32_t i = 0; i < path_len; i++) {
    std::string node;
    if (!GetLengthPrefixedString(&in, &node)) {
      return Status::Corruption("malformed XMSS auth path");
    }
    sig.auth_path.push_back(std::move(node));
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after XMSS signature");
  }
  return sig;
}

XmssSigner::XmssSigner(const Slice& secret_seed, const Slice& public_seed,
                       int height)
    : secret_seed_(secret_seed.ToString()),
      public_seed_(public_seed.ToString()),
      height_(height) {
  // Leaves are the WOTS public keys; the full binary tree is built
  // bottom-up over them.
  nodes_.push_back(Wots::PublicKeys(secret_seed_, public_seed_, 0,
                                    static_cast<uint32_t>(1ULL << height_)));
  BuildTree();
}

XmssSigner::XmssSigner(const Slice& secret_seed, const Slice& public_seed,
                       int height, std::vector<std::string> leaves)
    : secret_seed_(secret_seed.ToString()),
      public_seed_(public_seed.ToString()),
      height_(height) {
  nodes_.push_back(std::move(leaves));
  BuildTree();
}

void XmssSigner::BuildTree() {
  while (nodes_.back().size() > 1) {
    const auto& below = nodes_.back();
    std::vector<std::string> level;
    level.reserve(below.size() / 2);
    for (size_t i = 0; i < below.size(); i += 2) {
      level.push_back(MerkleTree::HashNode(below[i], below[i + 1]));
    }
    nodes_.push_back(std::move(level));
  }
  root_ = nodes_.back()[0];
}

Result<XmssSignature> XmssSigner::Sign(const Slice& message) {
  if (next_leaf_ >= (1ULL << height_)) {
    return Status::FailedPrecondition("XMSS signer exhausted");
  }
  const auto leaf = static_cast<uint32_t>(next_leaf_++);
  std::string digest = Sha256Digest(message);

  Wots wots(secret_seed_, public_seed_, leaf);
  MEDVAULT_ASSIGN_OR_RETURN(Wots::Signature wsig, wots.Sign(digest));

  XmssSignature sig;
  sig.leaf_index = leaf;
  sig.wots_signature = Wots::EncodeSignature(wsig);
  uint64_t idx = leaf;
  for (int level = 0; level < height_; level++) {
    sig.auth_path.push_back(nodes_[level][idx ^ 1]);
    idx >>= 1;
  }
  return sig;
}

Status XmssSigner::RestoreState(uint64_t next_leaf) {
  if (next_leaf < next_leaf_) {
    return Status::InvalidArgument(
        "XMSS state may not rewind (one-time keys would be reused)");
  }
  if (next_leaf > (1ULL << height_)) {
    return Status::InvalidArgument("XMSS state beyond capacity");
  }
  next_leaf_ = next_leaf;
  return Status::OK();
}

Status XmssSigner::Verify(const Slice& message, const XmssSignature& sig,
                          const Slice& public_key, const Slice& public_seed,
                          int height) {
  if (static_cast<int>(sig.auth_path.size()) != height) {
    return Status::TamperDetected("XMSS auth path has wrong length");
  }
  std::string digest = Sha256Digest(message);
  MEDVAULT_ASSIGN_OR_RETURN(Wots::Signature wsig,
                            Wots::DecodeSignature(sig.wots_signature));
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string node,
      Wots::PublicKeyFromSignature(digest, wsig, public_seed,
                                   sig.leaf_index));
  uint64_t idx = sig.leaf_index;
  for (int level = 0; level < height; level++) {
    if ((idx & 1) == 0) {
      node = MerkleTree::HashNode(node, sig.auth_path[level]);
    } else {
      node = MerkleTree::HashNode(sig.auth_path[level], node);
    }
    idx >>= 1;
  }
  if (!ConstantTimeEqual(node, public_key)) {
    return Status::TamperDetected("XMSS signature does not verify");
  }
  return Status::OK();
}

}  // namespace medvault::crypto
