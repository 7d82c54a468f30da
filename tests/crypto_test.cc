// Unit tests for the crypto substrate: SHA-256, HMAC, HKDF, HMAC-DRBG,
// AES, AES-CTR, and the AEAD composition — against published test
// vectors where they exist.

#include <gtest/gtest.h>

#include <string>

#include "common/hex.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {
namespace {

std::string FromHex(const std::string& hex) {
  auto r = HexDecode(hex);
  EXPECT_TRUE(r.ok()) << hex;
  return r.ValueOr("");
}

// ---- SHA-256 (FIPS 180-4 vectors) ------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256Digest(Slice())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(Slice(msg.data(), split));
    h.Update(Slice(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha256Digest(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64 byte padding boundaries.
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::string msg(len, 'x');
    std::string d1 = Sha256Digest(msg);
    Sha256 h;
    for (char c : msg) h.Update(Slice(&c, 1));
    EXPECT_EQ(h.Finish(), d1) << "len=" << len;
  }
}

TEST(Sha256Test, ResetRestartsState) {
  Sha256 h;
  h.Update("garbage");
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(HexEncode(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---- HMAC-SHA256 (RFC 4231 vectors) -----------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HexEncode(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HexEncode(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(HmacSha256("key1", "msg"), HmacSha256("key2", "msg"));
  EXPECT_NE(HmacSha256("key", "msg1"), HmacSha256("key", "msg2"));
}

TEST(HmacTest, MacLanesMatchesMacPerLane) {
  // Every one-block message length, 16 distinct messages per call at a
  // stride that is not the length: each lane's tag must equal Mac().
  constexpr int kLanes = internal::kSha256Lanes;
  constexpr size_t kStride = 61;
  for (const std::string key : {std::string("Jefe"), std::string(131, 'k')}) {
    const HmacSha256Key prf(key);
    std::string messages(kLanes * kStride, '\0');
    for (size_t i = 0; i < messages.size(); i++) {
      messages[i] = static_cast<char>(i * 131 + 7);
    }
    for (size_t len = 0; len <= 55; len++) {
      uint8_t tags[kLanes][kDigestSize];
      prf.MacLanes(reinterpret_cast<const uint8_t*>(messages.data()), kStride,
                   len, tags[0]);
      for (int i = 0; i < kLanes; i++) {
        ASSERT_EQ(std::string(reinterpret_cast<char*>(tags[i]), kDigestSize),
                  prf.Mac(Slice(messages.data() + i * kStride, len)))
            << "len=" << len << " lane=" << i;
      }
    }
  }
}

TEST(ConstantTimeEqualTest, Behaviour) {
  EXPECT_TRUE(ConstantTimeEqual("same", "same"));
  EXPECT_FALSE(ConstantTimeEqual("same", "sane"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer"));
  EXPECT_TRUE(ConstantTimeEqual("", ""));
}

// ---- HKDF (RFC 5869 vectors) -------------------------------------------------

TEST(HkdfTest, Rfc5869Case1) {
  std::string ikm = FromHex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  std::string salt = FromHex("000102030405060708090a0b0c");
  std::string info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = HkdfSha256(ikm, salt, info, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  std::string ikm = FromHex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  auto okm = HkdfSha256(ikm, Slice(), Slice(), 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, RejectsOversizedOutput) {
  auto okm = HkdfSha256("ikm", Slice(), Slice(), 255 * 32 + 1);
  EXPECT_TRUE(okm.status().IsInvalidArgument());
}

TEST(HkdfTest, DistinctInfoYieldsIndependentKeys) {
  auto k1 = HkdfSha256("master", Slice(), "purpose-a", 32);
  auto k2 = HkdfSha256("master", Slice(), "purpose-b", 32);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(*k1, *k2);
}

// ---- HMAC-DRBG -----------------------------------------------------------------

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a("seed"), b("seed");
  EXPECT_EQ(a.Generate(64), b.Generate(64));
  EXPECT_EQ(a.Generate(17), b.Generate(17));
}

TEST(DrbgTest, StreamAdvances) {
  HmacDrbg drbg("seed");
  EXPECT_NE(drbg.Generate(32), drbg.Generate(32));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  HmacDrbg a("seed1"), b("seed2");
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a("seed"), b("seed");
  a.Generate(32);
  b.Generate(32);
  a.Reseed("fresh entropy");
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, OutputLooksUniform) {
  HmacDrbg drbg("statistical-check");
  std::string bytes = drbg.Generate(100000);
  int ones = 0;
  for (char c : bytes) ones += __builtin_popcount(static_cast<uint8_t>(c));
  double ratio = static_cast<double>(ones) / (bytes.size() * 8);
  EXPECT_GT(ratio, 0.49);
  EXPECT_LT(ratio, 0.51);
}

// ---- AES (FIPS 197 vectors) -----------------------------------------------------

TEST(AesTest, Fips197Aes128) {
  Aes aes;
  ASSERT_TRUE(aes.Init(FromHex("000102030405060708090a0b0c0d0e0f")).ok());
  std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ(HexEncode(Slice(reinterpret_cast<char*>(ct), 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(back), 16), pt);
}

TEST(AesTest, Fips197Aes256) {
  Aes aes;
  ASSERT_TRUE(
      aes.Init(FromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f"))
          .ok());
  std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ(HexEncode(Slice(reinterpret_cast<char*>(ct), 16)),
            "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(back), 16), pt);
}

TEST(AesTest, RejectsBadKeySizes) {
  Aes aes;
  EXPECT_TRUE(aes.Init("short").IsInvalidArgument());
  EXPECT_TRUE(aes.Init(std::string(24, 'k')).IsInvalidArgument());  // AES-192
  EXPECT_FALSE(aes.initialized());
}

// ---- AES-CTR (NIST SP 800-38A F.5.1) ----------------------------------------------

TEST(CtrTest, NistSp80038aAes128Ctr) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  std::string nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::string pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  auto ct = ctr.Crypt(nonce, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(CtrTest, CryptIsItsOwnInverse) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  std::string nonce(16, 'n');
  std::string pt = "not a multiple of sixteen bytes!!";
  auto ct = ctr.Crypt(nonce, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_NE(*ct, pt);
  auto back = ctr.Crypt(nonce, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(CtrTest, RejectsBadNonce) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  EXPECT_TRUE(ctr.Crypt("short", "data").status().IsInvalidArgument());
}

TEST(CtrTest, EmptyInputYieldsEmptyOutput) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  auto out = ctr.Crypt(std::string(16, 'n'), Slice());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// ---- AEAD ---------------------------------------------------------------------------

class AeadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(aead_.Init(std::string(32, 'K')).ok());
  }
  Aead aead_;
  std::string nonce_ = std::string(16, 'N');
};

TEST_F(AeadTest, SealOpenRoundTrip) {
  auto sealed = aead_.Seal(nonce_, "secret medical note", "record-aad");
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size(), 19 + Aead::kOverhead);
  auto opened = aead_.Open(*sealed, "record-aad");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, "secret medical note");
}

// Pins the Seal wire bytes (nonce || AES-256-CTR ciphertext || HMAC
// tag under the HKDF-split keys), so a change to how Aead holds its
// keys cannot change what it writes. The expected bytes were checked
// against an independent AES-CTR/HMAC/HKDF implementation. The
// plaintext (75 bytes) ends in a partial CTR block; sealing twice with
// one object must give equal bytes.
TEST_F(AeadTest, SealKnownAnswer) {
  const std::string plaintext =
      "Patient presents with mild fever; prescribe rest and fluids. Review "
      "in 72h.";
  for (int i = 0; i < 2; i++) {
    auto sealed = aead_.Seal(nonce_, plaintext, "record-aad");
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(HexEncode(*sealed),
              "4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e"
              "fa8b917228f563e7aa5b04e139ad06f323adac9dd166085f434563840671152b"
              "62f69560b3795df36499b0dbb4b2ac64df683b4ce5e1d1704cda11700bf39b3c"
              "94919b6b048364099dad3a"
              "3830d6aea1ef8890f79e6f65cbafabc549dc8e4a8664a5d2e9a043c748780262");
  }
}

TEST_F(AeadTest, EveryCiphertextByteFlipIsDetected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  for (size_t i = 0; i < sealed->size(); i++) {
    std::string tampered = *sealed;
    tampered[i] ^= 0x01;
    EXPECT_TRUE(aead_.Open(tampered, "aad").status().IsTamperDetected())
        << "byte " << i << " flip not detected";
  }
}

TEST_F(AeadTest, WrongAadRejected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad-1");
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(aead_.Open(*sealed, "aad-2").status().IsTamperDetected());
}

TEST_F(AeadTest, TruncatedBlobRejected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  std::string truncated = sealed->substr(0, Aead::kOverhead - 1);
  EXPECT_TRUE(aead_.Open(truncated, "aad").status().IsTamperDetected());
}

TEST_F(AeadTest, EmptyPlaintextWorks) {
  auto sealed = aead_.Seal(nonce_, Slice(), "aad");
  ASSERT_TRUE(sealed.ok());
  auto opened = aead_.Open(*sealed, "aad");
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST_F(AeadTest, DifferentKeysCannotOpen) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  Aead other;
  ASSERT_TRUE(other.Init(std::string(32, 'X')).ok());
  EXPECT_TRUE(other.Open(*sealed, "aad").status().IsTamperDetected());
}

TEST_F(AeadTest, RejectsBadKeyAndNonceSizes) {
  Aead bad;
  EXPECT_TRUE(bad.Init("short").IsInvalidArgument());
  EXPECT_TRUE(
      aead_.Seal("shortnonce", "pt", "aad").status().IsInvalidArgument());
}

}  // namespace
}  // namespace medvault::crypto
