// Merkle tree tests: RFC 6962 hashing vectors, inclusion proofs,
// consistency proofs, and adversarial proof manipulation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/merkle.h"

namespace medvault::crypto {
namespace {

// ---- RFC 6962 structure ---------------------------------------------------

TEST(MerkleTest, EmptyRootIsSha256OfEmpty) {
  MerkleTree tree;
  EXPECT_EQ(HexEncode(tree.Root()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  MerkleTree tree;
  tree.Append("entry");
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf("entry"));
}

TEST(MerkleTest, TwoLeavesRootIsNodeHash) {
  MerkleTree tree;
  tree.Append("a");
  tree.Append("b");
  EXPECT_EQ(tree.Root(), MerkleTree::HashNode(MerkleTree::HashLeaf("a"),
                                              MerkleTree::HashLeaf("b")));
}

TEST(MerkleTest, LeafAndNodeHashesAreDomainSeparated) {
  // Leaf(x) must never equal Node(y,z) structure confusion.
  EXPECT_NE(MerkleTree::HashLeaf(""), MerkleTree::EmptyRoot());
  EXPECT_NE(MerkleTree::HashLeaf("ab"),
            MerkleTree::HashNode("a", "b"));
}

TEST(MerkleTest, UnbalancedTreeStructure) {
  // RFC 6962: MTH(D[3]) = h(MTH(D[0:2]), MTH(D[2:3])).
  MerkleTree tree;
  tree.Append("a");
  tree.Append("b");
  tree.Append("c");
  std::string left = MerkleTree::HashNode(MerkleTree::HashLeaf("a"),
                                          MerkleTree::HashLeaf("b"));
  EXPECT_EQ(tree.Root(),
            MerkleTree::HashNode(left, MerkleTree::HashLeaf("c")));
}

TEST(MerkleTest, RootAtReproducesHistoricalRoots) {
  MerkleTree tree;
  std::vector<std::string> roots;
  for (int i = 0; i < 20; i++) {
    roots.push_back(tree.Root());
    tree.Append("leaf-" + std::to_string(i));
  }
  for (int i = 0; i < 20; i++) {
    auto r = tree.RootAt(i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, roots[i]) << "size " << i;
  }
  EXPECT_TRUE(tree.RootAt(21).status().IsInvalidArgument());
}

TEST(MerkleTest, AppendReturnsSequentialIndexes) {
  MerkleTree tree;
  EXPECT_EQ(tree.Append("a"), 0u);
  EXPECT_EQ(tree.Append("b"), 1u);
  EXPECT_EQ(tree.size(), 2u);
}

// ---- Inclusion proofs --------------------------------------------------------

class InclusionProofTest : public ::testing::TestWithParam<int> {};

TEST_P(InclusionProofTest, EveryLeafProvableAtEverySize) {
  const int n = GetParam();
  MerkleTree tree;
  for (int i = 0; i < n; i++) tree.Append("leaf-" + std::to_string(i));

  for (uint64_t size = 1; size <= static_cast<uint64_t>(n); size++) {
    auto root = tree.RootAt(size);
    ASSERT_TRUE(root.ok());
    for (uint64_t idx = 0; idx < size; idx++) {
      auto proof = tree.InclusionProof(idx, size);
      ASSERT_TRUE(proof.ok()) << idx << "/" << size;
      std::string leaf_hash =
          MerkleTree::HashLeaf("leaf-" + std::to_string(idx));
      EXPECT_TRUE(MerkleTree::VerifyInclusion(leaf_hash, idx, size, *proof,
                                              *root)
                      .ok())
          << idx << "/" << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InclusionProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 33));

TEST(MerkleTest, InclusionProofSizeIsLogarithmic) {
  MerkleTree tree;
  for (int i = 0; i < 1024; i++) tree.Append("x" + std::to_string(i));
  auto proof = tree.InclusionProof(500, 1024);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->size(), 10u);  // exactly log2(1024)
}

TEST(MerkleTest, InclusionProofWrongLeafFails) {
  MerkleTree tree;
  for (int i = 0; i < 10; i++) tree.Append("leaf-" + std::to_string(i));
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(MerkleTree::VerifyInclusion(MerkleTree::HashLeaf("forged"), 3,
                                          10, *proof, tree.Root())
                  .IsTamperDetected());
}

TEST(MerkleTest, InclusionProofWrongIndexFails) {
  MerkleTree tree;
  for (int i = 0; i < 10; i++) tree.Append("leaf-" + std::to_string(i));
  auto proof = tree.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::VerifyInclusion(MerkleTree::HashLeaf("leaf-3"), 4,
                                           10, *proof, tree.Root())
                   .ok());
}

TEST(MerkleTest, InclusionProofTamperedPathFails) {
  MerkleTree tree;
  for (int i = 0; i < 16; i++) tree.Append("leaf-" + std::to_string(i));
  auto proof = tree.InclusionProof(5, 16);
  ASSERT_TRUE(proof.ok());
  for (size_t i = 0; i < proof->size(); i++) {
    auto tampered = *proof;
    tampered[i][0] ^= 1;
    EXPECT_FALSE(MerkleTree::VerifyInclusion(MerkleTree::HashLeaf("leaf-5"),
                                             5, 16, tampered, tree.Root())
                     .ok())
        << "path element " << i;
  }
}

TEST(MerkleTest, InclusionProofTruncatedOrPaddedFails) {
  MerkleTree tree;
  for (int i = 0; i < 16; i++) tree.Append("leaf-" + std::to_string(i));
  auto proof = tree.InclusionProof(5, 16);
  ASSERT_TRUE(proof.ok());

  auto shorter = *proof;
  shorter.pop_back();
  EXPECT_FALSE(MerkleTree::VerifyInclusion(MerkleTree::HashLeaf("leaf-5"), 5,
                                           16, shorter, tree.Root())
                   .ok());

  auto longer = *proof;
  longer.push_back(MerkleTree::HashLeaf("extra"));
  EXPECT_FALSE(MerkleTree::VerifyInclusion(MerkleTree::HashLeaf("leaf-5"), 5,
                                           16, longer, tree.Root())
                   .ok());
}

TEST(MerkleTest, InclusionProofOutOfRangeRejected) {
  MerkleTree tree;
  tree.Append("a");
  EXPECT_TRUE(tree.InclusionProof(0, 2).status().IsInvalidArgument());
  EXPECT_TRUE(tree.InclusionProof(1, 1).status().IsInvalidArgument());
}

// ---- Consistency proofs ---------------------------------------------------------

class ConsistencyProofTest : public ::testing::TestWithParam<int> {};

TEST_P(ConsistencyProofTest, AllPrefixPairsVerify) {
  const int n = GetParam();
  MerkleTree tree;
  for (int i = 0; i < n; i++) tree.Append("leaf-" + std::to_string(i));

  for (uint64_t old_size = 0; old_size <= static_cast<uint64_t>(n);
       old_size++) {
    for (uint64_t new_size = old_size; new_size <= static_cast<uint64_t>(n);
         new_size++) {
      auto old_root = tree.RootAt(old_size);
      auto new_root = tree.RootAt(new_size);
      ASSERT_TRUE(old_root.ok());
      ASSERT_TRUE(new_root.ok());
      auto proof = tree.ConsistencyProof(old_size, new_size);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(MerkleTree::VerifyConsistency(old_size, *old_root,
                                                new_size, *new_root, *proof)
                      .ok())
          << old_size << " -> " << new_size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConsistencyProofTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 21));

TEST(MerkleTest, ConsistencyDetectsHistoryRewrite) {
  // Build a log, then a "rewritten" fork that changed an early entry.
  MerkleTree honest, forked;
  for (int i = 0; i < 8; i++) honest.Append("entry-" + std::to_string(i));
  for (int i = 0; i < 8; i++) {
    forked.Append(i == 2 ? std::string("REWRITTEN")
                         : "entry-" + std::to_string(i));
  }
  for (int i = 8; i < 12; i++) forked.Append("entry-" + std::to_string(i));

  // The auditor holds the honest root at size 8; the forked tree cannot
  // produce a valid consistency proof against it.
  auto proof = forked.ConsistencyProof(8, 12);
  ASSERT_TRUE(proof.ok());
  auto forked_root8 = forked.RootAt(8);
  ASSERT_TRUE(forked_root8.ok());
  std::string honest_root8 = honest.Root();
  ASSERT_NE(*forked_root8, honest_root8);
  EXPECT_TRUE(MerkleTree::VerifyConsistency(8, honest_root8, 12,
                                            forked.Root(), *proof)
                  .IsTamperDetected());
}

TEST(MerkleTest, ConsistencyEqualSizesRequiresEqualRoots) {
  MerkleTree tree;
  tree.Append("a");
  std::vector<std::string> empty_proof;
  EXPECT_TRUE(MerkleTree::VerifyConsistency(1, tree.Root(), 1, tree.Root(),
                                            empty_proof)
                  .ok());
  EXPECT_TRUE(MerkleTree::VerifyConsistency(1, tree.Root(), 1,
                                            MerkleTree::HashLeaf("other"),
                                            empty_proof)
                  .IsTamperDetected());
}

TEST(MerkleTest, ConsistencyFromEmptyAlwaysHolds) {
  MerkleTree tree;
  for (int i = 0; i < 5; i++) tree.Append("x" + std::to_string(i));
  std::vector<std::string> empty_proof;
  EXPECT_TRUE(MerkleTree::VerifyConsistency(0, MerkleTree::EmptyRoot(), 5,
                                            tree.Root(), empty_proof)
                  .ok());
}

TEST(MerkleTest, ConsistencyRejectsShrinkingLog) {
  MerkleTree tree;
  for (int i = 0; i < 5; i++) tree.Append("x" + std::to_string(i));
  std::vector<std::string> proof;
  EXPECT_TRUE(MerkleTree::VerifyConsistency(5, tree.Root(), 3,
                                            *tree.RootAt(3), proof)
                  .IsInvalidArgument());
}

TEST(MerkleTest, ConsistencyTamperedProofFails) {
  MerkleTree tree;
  for (int i = 0; i < 13; i++) tree.Append("x" + std::to_string(i));
  auto proof = tree.ConsistencyProof(9, 13);
  ASSERT_TRUE(proof.ok());
  ASSERT_FALSE(proof->empty());
  for (size_t i = 0; i < proof->size(); i++) {
    auto tampered = *proof;
    tampered[i][5] ^= 0x40;
    EXPECT_FALSE(MerkleTree::VerifyConsistency(9, *tree.RootAt(9), 13,
                                               tree.Root(), tampered)
                     .ok())
        << "element " << i;
  }
}

// ---- Flat storage ------------------------------------------------------------

TEST(MerkleTest, AppendLeafHashRefusesWrongLength) {
  MerkleTree tree;
  const std::string leaf = MerkleTree::HashLeaf("x");
  EXPECT_TRUE(tree.AppendLeafHash(leaf.substr(0, 31)).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(tree.AppendLeafHash(leaf + "y").status().IsInvalidArgument());
  EXPECT_TRUE(tree.AppendLeafHash("").status().IsInvalidArgument());
  EXPECT_EQ(tree.size(), 0u);  // refused, never truncated or padded
  auto index = tree.AppendLeafHash(leaf);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 0u);
  EXPECT_EQ(*tree.LeafHash(0), leaf);
}

// The memo covers only aligned blocks of at least kMemoBlock leaves;
// every root and proof must match the naive tree on both sides of each
// block boundary.
TEST(MerkleTest, MemoizedTreeMatchesNaiveAcrossMemoBlocks) {
  const uint64_t n = 4 * MerkleTree::kMemoBlock + 3;
  MerkleTree memo, naive(/*memoize=*/false);
  for (uint64_t i = 0; i < n; i++) {
    memo.Append("leaf-" + std::to_string(i));
    naive.Append("leaf-" + std::to_string(i));
    ASSERT_EQ(memo.Root(), naive.Root()) << "size " << i + 1;
  }
  for (uint64_t size = 1; size <= n; size++) {
    ASSERT_EQ(*memo.RootAt(size), *naive.RootAt(size)) << size;
    for (uint64_t idx = 0; idx < size; idx++) {
      ASSERT_EQ(*memo.InclusionProof(idx, size),
                *naive.InclusionProof(idx, size))
          << idx << "/" << size;
    }
    for (uint64_t old_size = 0; old_size <= size; old_size++) {
      ASSERT_EQ(*memo.ConsistencyProof(old_size, size),
                *naive.ConsistencyProof(old_size, size))
          << old_size << " -> " << size;
    }
  }
}

}  // namespace
}  // namespace medvault::crypto
