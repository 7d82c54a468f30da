#include "crypto/merkle.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

namespace {

/// Largest power of two strictly less than n (n >= 2).
uint64_t SplitPoint(uint64_t n) {
  uint64_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}

}  // namespace

std::string MerkleTree::HashLeaf(const Slice& data) {
  return ToString(HashLeafFlat(data));
}

MerkleTree::Hash MerkleTree::HashLeafFlat(const Slice& data) {
  Sha256 h;
  h.Update(Slice("\x00", 1));
  h.Update(data);
  Hash out;
  h.Finish(reinterpret_cast<uint8_t*>(out.data()));
  return out;
}

std::string MerkleTree::HashNode(const Slice& left, const Slice& right) {
  Sha256 h;
  h.Update(Slice("\x01", 1));
  h.Update(left);
  h.Update(right);
  return h.Finish();
}

MerkleTree::Hash MerkleTree::HashNodeFlat(const Hash& left,
                                          const Hash& right) {
  Sha256 h;
  h.Update(Slice("\x01", 1));
  h.Update(Slice(left.data(), left.size()));
  h.Update(Slice(right.data(), right.size()));
  Hash out;
  h.Finish(reinterpret_cast<uint8_t*>(out.data()));
  return out;
}

std::string MerkleTree::EmptyRoot() { return Sha256Digest(Slice()); }

uint64_t MerkleTree::Append(const Slice& leaf_data) {
  return AppendHash(HashLeafFlat(leaf_data));
}

Result<uint64_t> MerkleTree::AppendLeafHash(const Slice& leaf_hash) {
  if (leaf_hash.size() != kDigestSize) {
    return Status::InvalidArgument("leaf hash must be 32 bytes");
  }
  Hash leaf;
  std::copy(leaf_hash.data(), leaf_hash.data() + kDigestSize, leaf.begin());
  return AppendHash(leaf);
}

uint64_t MerkleTree::AppendHash(const Hash& leaf) {
  leaves_.push_back(leaf);
  const uint64_t n = leaves_.size();
  if (memoize_ && n % kMemoBlock == 0) {
    // The new leaf closes a memo block; each completed block may in turn
    // close the block one level up.
    Hash node = SubtreeRoot(n - kMemoBlock, kMemoBlock);
    for (size_t level = 0;; ++level) {
      if (memo_.size() == level) memo_.emplace_back();
      std::deque<Hash>& row = memo_[level];
      row.push_back(node);
      if (row.size() % 2 != 0) break;
      node = HashNodeFlat(row[row.size() - 2], row[row.size() - 1]);
    }
  }
  return n - 1;
}

MerkleTree::Hash MerkleTree::SubtreeRoot(uint64_t begin, uint64_t n) const {
  if (n == 1) return leaves_[begin];
  if (memoize_ && n >= kMemoBlock && (n & (n - 1)) == 0 && begin % n == 0) {
    // Complete aligned block: O(1) from the memo once it is closed.
    size_t level = 0;
    while ((kMemoBlock << level) < n) level++;
    if (level < memo_.size() && begin / n < memo_[level].size()) {
      return memo_[level][begin / n];
    }
  }
  uint64_t k = SplitPoint(n);
  return HashNodeFlat(SubtreeRoot(begin, k), SubtreeRoot(begin + k, n - k));
}

std::string MerkleTree::Root() const { return *RootAt(size()); }

Result<std::string> MerkleTree::RootAt(uint64_t n) const {
  if (n > size()) return Status::InvalidArgument("RootAt beyond tree size");
  if (n == 0) return EmptyRoot();
  return ToString(SubtreeRoot(0, n));
}

Result<std::string> MerkleTree::LeafHash(uint64_t index) const {
  if (index >= size()) return Status::InvalidArgument("leaf index OOB");
  return ToString(leaves_[index]);
}

Result<std::vector<std::string>> MerkleTree::InclusionProof(
    uint64_t index, uint64_t tree_size) const {
  if (tree_size > size() || index >= tree_size) {
    return Status::InvalidArgument("inclusion proof parameters out of range");
  }
  std::vector<std::string> proof;
  // Iterative descent over the subtree [begin, begin+n).
  uint64_t begin = 0, n = tree_size, m = index;
  std::vector<std::string> reversed;
  while (n > 1) {
    uint64_t k = SplitPoint(n);
    if (m < k) {
      reversed.push_back(ToString(SubtreeRoot(begin + k, n - k)));
      n = k;
    } else {
      reversed.push_back(ToString(SubtreeRoot(begin, k)));
      begin += k;
      m -= k;
      n -= k;
    }
  }
  proof.assign(reversed.rbegin(), reversed.rend());
  return proof;
}

Result<std::vector<std::string>> MerkleTree::ConsistencyProof(
    uint64_t old_size, uint64_t new_size) const {
  if (new_size > size() || old_size > new_size) {
    return Status::InvalidArgument("consistency proof parameters invalid");
  }
  std::vector<std::string> proof;
  if (old_size == 0 || old_size == new_size) return proof;

  // SUBPROOF(m, D[begin:begin+n], complete_subtree) per RFC 6962 §2.1.2,
  // iterative form collecting entries in reverse.
  std::vector<std::string> reversed;
  uint64_t begin = 0, n = new_size, m = old_size;
  bool complete = true;
  while (true) {
    if (m == n) {
      if (!complete) reversed.push_back(ToString(SubtreeRoot(begin, m)));
      break;
    }
    uint64_t k = SplitPoint(n);
    if (m <= k) {
      reversed.push_back(ToString(SubtreeRoot(begin + k, n - k)));
      n = k;
    } else {
      reversed.push_back(ToString(SubtreeRoot(begin, k)));
      begin += k;
      m -= k;
      n -= k;
      complete = false;
    }
  }
  proof.assign(reversed.rbegin(), reversed.rend());
  return proof;
}

Status MerkleTree::VerifyInclusion(const Slice& leaf_hash, uint64_t index,
                                   uint64_t tree_size,
                                   const std::vector<std::string>& proof,
                                   const Slice& root) {
  if (index >= tree_size) {
    return Status::InvalidArgument("leaf index not below tree size");
  }
  // RFC 9162 §2.1.3.2.
  uint64_t fn = index;
  uint64_t sn = tree_size - 1;
  std::string r = leaf_hash.ToString();
  for (const std::string& p : proof) {
    if (sn == 0) return Status::TamperDetected("inclusion proof too long");
    if ((fn & 1) == 1 || fn == sn) {
      r = HashNode(p, r);
      if ((fn & 1) == 0) {
        while ((fn & 1) == 0 && fn != 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = HashNode(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  if (sn != 0) return Status::TamperDetected("inclusion proof too short");
  if (!ConstantTimeEqual(r, root)) {
    return Status::TamperDetected("inclusion proof root mismatch");
  }
  return Status::OK();
}

Status MerkleTree::VerifyConsistency(uint64_t old_size, const Slice& old_root,
                                     uint64_t new_size, const Slice& new_root,
                                     const std::vector<std::string>& proof) {
  // RFC 9162 §2.1.4.2.
  if (old_size > new_size) {
    return Status::InvalidArgument("old size exceeds new size");
  }
  if (old_size == new_size) {
    if (!proof.empty()) {
      return Status::TamperDetected("nonempty proof for equal sizes");
    }
    if (!ConstantTimeEqual(old_root, new_root)) {
      return Status::TamperDetected("equal-size roots differ");
    }
    return Status::OK();
  }
  if (old_size == 0) {
    // Any tree is consistent with the empty tree.
    if (!proof.empty()) {
      return Status::TamperDetected("nonempty proof for empty old tree");
    }
    return Status::OK();
  }

  uint64_t fn = old_size - 1;
  uint64_t sn = new_size - 1;
  while ((fn & 1) == 1) {
    fn >>= 1;
    sn >>= 1;
  }

  size_t i = 0;
  std::string fr, sr;
  if (fn == 0) {
    fr = old_root.ToString();
    sr = old_root.ToString();
  } else {
    if (proof.empty()) {
      return Status::TamperDetected("consistency proof too short");
    }
    fr = proof[0];
    sr = proof[0];
    i = 1;
  }

  for (; i < proof.size(); i++) {
    if (sn == 0) return Status::TamperDetected("consistency proof too long");
    const std::string& p = proof[i];
    if ((fn & 1) == 1 || fn == sn) {
      fr = HashNode(p, fr);
      sr = HashNode(p, sr);
      if ((fn & 1) == 0) {
        while ((fn & 1) == 0 && fn != 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = HashNode(sr, p);
    }
    fn >>= 1;
    sn >>= 1;
  }

  if (sn != 0) return Status::TamperDetected("consistency proof too short");
  if (!ConstantTimeEqual(fr, old_root)) {
    return Status::TamperDetected("consistency proof old-root mismatch");
  }
  if (!ConstantTimeEqual(sr, new_root)) {
    return Status::TamperDetected("consistency proof new-root mismatch");
  }
  return Status::OK();
}

}  // namespace medvault::crypto
