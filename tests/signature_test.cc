// WOTS+ and XMSS-style hash-based signature tests: correctness,
// forgery resistance, state discipline, serialization.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"
#include "crypto/xmss.h"

namespace medvault::crypto {
namespace {

constexpr char kSecretSeed[] = "wots-secret-seed-for-tests";
constexpr char kPublicSeed[] = "wots-public-seed-for-tests";

// The WOTS public key of one leaf, through the batch key generation.
std::string LeafPublicKey(uint32_t leaf) {
  return Wots::PublicKeys(kSecretSeed, kPublicSeed, leaf, 1)[0];
}

// ---- WOTS -------------------------------------------------------------------

TEST(WotsTest, SignVerifyRoundTrip) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), static_cast<size_t>(Wots::kLen));
  EXPECT_TRUE(
      Wots::Verify(digest, *sig, LeafPublicKey(0), kPublicSeed, 0).ok());
}

TEST(WotsTest, WrongMessageFails) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  auto sig = wots.Sign(Sha256Digest("message"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Wots::Verify(Sha256Digest("other"), *sig, LeafPublicKey(0),
                           kPublicSeed, 0)
                  .IsTamperDetected());
}

TEST(WotsTest, WrongLeafIndexFails) {
  Wots wots(kSecretSeed, kPublicSeed, 3);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(
      Wots::Verify(digest, *sig, LeafPublicKey(3), kPublicSeed, 4).ok());
}

TEST(WotsTest, TamperedChainValueFails) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  (*sig)[10][0] ^= 1;
  EXPECT_TRUE(Wots::Verify(digest, *sig, LeafPublicKey(0), kPublicSeed, 0)
                  .IsTamperDetected());
}

TEST(WotsTest, ChecksumPreventsDigitIncreaseForgery) {
  // The classic Winternitz attack: advancing a signature chain signs a
  // "larger digit" message. The checksum chains must catch this: a
  // forged signature built by hashing sig chains forward must fail.
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("target");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  // "Advance" chain 0 by one step (what an attacker can compute freely).
  Sha256 h;
  h.Update("wots-chain");
  h.Update(kPublicSeed);
  // (we don't know the exact digit; just perturb with a hash)
  (*sig)[0] = Sha256Digest((*sig)[0]);
  EXPECT_FALSE(
      Wots::Verify(digest, *sig, LeafPublicKey(0), kPublicSeed, 0).ok());
}

TEST(WotsTest, SignatureSerializationRoundTrip) {
  Wots wots(kSecretSeed, kPublicSeed, 7);
  auto sig = wots.Sign(Sha256Digest("message"));
  ASSERT_TRUE(sig.ok());
  std::string encoded = Wots::EncodeSignature(*sig);
  EXPECT_EQ(encoded.size(), static_cast<size_t>(Wots::kLen) * Wots::kN);
  auto decoded = Wots::DecodeSignature(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, *sig);
  EXPECT_TRUE(
      Wots::DecodeSignature("too short").status().IsInvalidArgument());
}

TEST(WotsTest, RejectsNonDigestMessages) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  EXPECT_TRUE(wots.Sign("not 32 bytes").status().IsInvalidArgument());
}

TEST(WotsTest, DifferentLeavesHaveDifferentKeys) {
  EXPECT_NE(LeafPublicKey(0), LeafPublicKey(1));
}

// ---- XMSS -------------------------------------------------------------------

class XmssTest : public ::testing::Test {
 protected:
  static constexpr int kHeight = 3;  // 8 signatures
  XmssSigner signer_{kSecretSeed, kPublicSeed, kHeight};
};

TEST_F(XmssTest, SignVerifyRoundTrip) {
  auto sig = signer_.Sign("audit checkpoint 1");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("audit checkpoint 1", *sig,
                                 signer_.public_key(), kPublicSeed, kHeight)
                  .ok());
}

TEST_F(XmssTest, EachSignatureUsesFreshLeaf) {
  auto s1 = signer_.Sign("m1");
  auto s2 = signer_.Sign("m2");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->leaf_index, 0u);
  EXPECT_EQ(s2->leaf_index, 1u);
  EXPECT_EQ(signer_.SignaturesUsed(), 2u);
  EXPECT_EQ(signer_.SignaturesRemaining(), 6u);
}

TEST_F(XmssTest, ExhaustionRefusesToSign) {
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(signer_.Sign("m" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(signer_.Sign("one too many").status().IsFailedPrecondition());
}

TEST_F(XmssTest, AllLeavesVerify) {
  for (int i = 0; i < 8; i++) {
    std::string msg = "message-" + std::to_string(i);
    auto sig = signer_.Sign(msg);
    ASSERT_TRUE(sig.ok());
    EXPECT_TRUE(XmssSigner::Verify(msg, *sig, signer_.public_key(),
                                   kPublicSeed, kHeight)
                    .ok())
        << "leaf " << i;
  }
}

TEST_F(XmssTest, WrongMessageFails) {
  auto sig = signer_.Sign("genuine");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("forged", *sig, signer_.public_key(),
                                 kPublicSeed, kHeight)
                  .IsTamperDetected());
}

TEST_F(XmssTest, TamperedAuthPathFails) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  for (size_t i = 0; i < sig->auth_path.size(); i++) {
    XmssSignature tampered = *sig;
    tampered.auth_path[i][0] ^= 1;
    EXPECT_FALSE(XmssSigner::Verify("msg", tampered, signer_.public_key(),
                                    kPublicSeed, kHeight)
                     .ok())
        << "auth path level " << i;
  }
}

TEST_F(XmssTest, WrongPublicKeyFails) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  XmssSigner other("other-secret", kPublicSeed, kHeight);
  EXPECT_TRUE(XmssSigner::Verify("msg", *sig, other.public_key(),
                                 kPublicSeed, kHeight)
                  .IsTamperDetected());
}

TEST_F(XmssTest, WrongHeightRejected) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("msg", *sig, signer_.public_key(),
                                 kPublicSeed, kHeight + 1)
                  .IsTamperDetected());
}

TEST_F(XmssTest, StateRestoreNeverRewinds) {
  ASSERT_TRUE(signer_.Sign("m0").ok());
  ASSERT_TRUE(signer_.Sign("m1").ok());
  // Rewinding would reuse one-time keys — must be refused.
  EXPECT_TRUE(signer_.RestoreState(1).IsInvalidArgument());
  EXPECT_TRUE(signer_.RestoreState(2).ok());   // no-op
  EXPECT_TRUE(signer_.RestoreState(5).ok());   // skip ahead is safe
  auto sig = signer_.Sign("m5");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->leaf_index, 5u);
  EXPECT_TRUE(signer_.RestoreState(100).IsInvalidArgument());  // beyond cap
}

TEST_F(XmssTest, DeterministicKeyGeneration) {
  // Same seeds -> same public key: a vault reopened later keeps its
  // signer identity.
  XmssSigner again(kSecretSeed, kPublicSeed, kHeight);
  EXPECT_EQ(again.public_key(), signer_.public_key());
}

TEST_F(XmssTest, SignatureSerializationRoundTrip) {
  auto sig = signer_.Sign("serialize me");
  ASSERT_TRUE(sig.ok());
  std::string encoded = sig->Encode();
  auto decoded = XmssSignature::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->leaf_index, sig->leaf_index);
  EXPECT_EQ(decoded->wots_signature, sig->wots_signature);
  EXPECT_EQ(decoded->auth_path, sig->auth_path);
  EXPECT_TRUE(XmssSigner::Verify("serialize me", *decoded,
                                 signer_.public_key(), kPublicSeed, kHeight)
                  .ok());
}

// ---- Known answers ----------------------------------------------------------
//
// Pinned bytes of keys and signatures already in the field: vault
// signer and witness public keys are stored in manifests and
// checkpoints, so any change to the chain hash, the chain-secret PRF
// or the tree layout shows up here first. The suite runs once on the
// dispatched SHA-256 kernel and once under MEDVAULT_FORCE_SCALAR=1
// (ctest entry signature_test_scalar), so both kernels are held to the
// same answers.

TEST(SignatureKnownAnswerTest, ProductionShapeHeight8) {
  // 32-byte seeds at height 8: the shape of every vault signer and
  // per-shard witness key.
  XmssSigner signer(std::string(32, 'S'), std::string(32, 'P'), 8);
  EXPECT_EQ(HexEncode(signer.public_key()),
            "6651732cffe2e7d77c5dc69bc0047f56eb235a0a19c64213013127aad6423f6a");
}

TEST(SignatureKnownAnswerTest, SignerFromLeavesMatchesKeygen) {
  // The leaves a vault keeps in signer.tree rebuild the production-shape
  // key without WOTS key generation: the same root, and a byte-identical
  // signature from the same leaf.
  XmssSigner keygen(std::string(32, 'S'), std::string(32, 'P'), 8);
  XmssSigner cached(std::string(32, 'S'), std::string(32, 'P'), 8,
                    keygen.leaves());
  EXPECT_EQ(HexEncode(cached.public_key()),
            "6651732cffe2e7d77c5dc69bc0047f56eb235a0a19c64213013127aad6423f6a");
  EXPECT_EQ(cached.leaves(), keygen.leaves());
  ASSERT_TRUE(keygen.RestoreState(37).ok());
  ASSERT_TRUE(cached.RestoreState(37).ok());
  auto from_keygen = keygen.Sign("known-answer checkpoint");
  auto from_leaves = cached.Sign("known-answer checkpoint");
  ASSERT_TRUE(from_keygen.ok() && from_leaves.ok());
  EXPECT_EQ(from_leaves->Encode(), from_keygen->Encode());
  EXPECT_EQ(HexEncode(Sha256Digest(from_leaves->Encode())),
            "9cb7156b4a72b7faebc1db254b716be417fb5e5c67019370ed3970d58e5b5444");
}

TEST(SignatureKnownAnswerTest, ShortSeeds) {
  XmssSigner signer("ret-secret", "ret-public", 3);
  EXPECT_EQ(HexEncode(signer.public_key()),
            "ecad766535f521ef226a31a1cce897aa8540c623e6f292e4ff962a52b713c34e");
}

TEST(SignatureKnownAnswerTest, SecretSeedLongerThanHmacBlock) {
  // A >64-byte secret seed is hashed before keying the chain-secret
  // PRF (RFC 2104).
  XmssSigner signer(std::string(100, 'k'), "long-key-public", 2);
  EXPECT_EQ(HexEncode(signer.public_key()),
            "f489b4db41ea643d8c10f900d752f658eba623f20b2c112ff6c832148bd79fb0");
}

TEST(SignatureKnownAnswerTest, PublicSeedSpanningThreeBlocks) {
  // A 72-byte public seed makes every chain-step message ("wots-chain"
  // || seed || leaf || chain || step || value, 126 bytes) and its
  // padding span three compression blocks; 32-byte seeds need two.
  XmssSigner signer(std::string(32, 'S'), std::string(72, 'Q'), 3);
  EXPECT_EQ(HexEncode(signer.public_key()),
            "97cf1c9024960e5968c7d5d2e8aabd7529e6bba1ead2f039c40b85c4189d2011");
}

TEST(SignatureKnownAnswerTest, EncodedSignature) {
  XmssSigner signer(kSecretSeed, kPublicSeed, 2);
  ASSERT_TRUE(signer.RestoreState(1).ok());
  auto sig = signer.Sign("known-answer checkpoint");
  ASSERT_TRUE(sig.ok());
  const std::string encoded = sig->Encode();
  // The full encoding is 2.2 KB (67 WOTS chains); its leaf index and
  // auth path are pinned in hex and the whole byte string by digest.
  EXPECT_EQ(encoded.size(), 2217u);
  EXPECT_EQ(HexEncode(Slice(encoded.data(), 4)), "01000000");
  EXPECT_EQ(HexEncode(sig->auth_path[0] + sig->auth_path[1]),
            "0d37df86934ca368d42c6ba67de7ac225cd994905f8aeed294467c3bb41c3c32"
            "89406cc404dcc5381f8aee7ce87e0c92f7ab152d85dd2fd32e2159adeb7d48be");
  EXPECT_EQ(HexEncode(Sha256Digest(encoded)),
            "0b26a9d4f7d307a2f4281e45c59179525e3c5952051e0a5fad5074ae53f2999b");
}

TEST(SignatureKnownAnswerTest, WotsPublicKey) {
  EXPECT_EQ(HexEncode(LeafPublicKey(5)),
            "0f68752f21cfd148eba2b33d90bed456af0eda638df2446b8c8110974a4d49c3");
}

TEST(WotsKeygenTest, SignatureRecoversEveryLeafPublicKey) {
  // Every leaf of a height-4 key: the public key recomputed from a
  // signature must be the one key generation put in the tree.
  constexpr uint32_t kLeaves = 16;
  const std::vector<std::string> keys =
      Wots::PublicKeys(kSecretSeed, kPublicSeed, 0, kLeaves);
  ASSERT_EQ(keys.size(), kLeaves);
  const std::string digest = Sha256Digest("leaf-consistency");
  for (uint32_t leaf = 0; leaf < kLeaves; leaf++) {
    Wots wots(kSecretSeed, kPublicSeed, leaf);
    auto sig = wots.Sign(digest);
    ASSERT_TRUE(sig.ok());
    auto recovered =
        Wots::PublicKeyFromSignature(digest, *sig, kPublicSeed, leaf);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(*recovered, keys[leaf]) << "leaf " << leaf;
  }
}

TEST(WotsKeygenTest, LeafRangesAgreeWithTheWholeKey) {
  // A range that starts mid-key, and ranges whose chain counts leave
  // the last lane batch short, give the same keys as the whole key.
  const std::vector<std::string> all =
      Wots::PublicKeys(kSecretSeed, kPublicSeed, 0, 16);
  for (uint32_t first : {0u, 1u, 5u, 13u}) {
    for (uint32_t count : {1u, 2u, 3u}) {
      const std::vector<std::string> part =
          Wots::PublicKeys(kSecretSeed, kPublicSeed, first, count);
      ASSERT_EQ(part.size(), count);
      for (uint32_t i = 0; i < count; i++) {
        EXPECT_EQ(part[i], all[first + i]) << first << "+" << i;
      }
    }
  }
  EXPECT_TRUE(Wots::PublicKeys(kSecretSeed, kPublicSeed, 0, 0).empty());
}

TEST_F(XmssTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(XmssSignature::Decode("").ok());
  EXPECT_FALSE(XmssSignature::Decode("garbage bytes here").ok());
  auto sig = signer_.Sign("x");
  ASSERT_TRUE(sig.ok());
  std::string enc = sig->Encode();
  enc += "trailing";
  EXPECT_FALSE(XmssSignature::Decode(enc).ok());
}

}  // namespace
}  // namespace medvault::crypto
