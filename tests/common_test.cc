// Unit tests for the common substrate: Status, Result, Slice, coding,
// CRC32C, hex, clocks, and the deterministic PRNG.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/hex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace medvault {
namespace {

// ---- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, EachFactoryProducesItsCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::TamperDetected("x").IsTamperDetected());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::WormViolation("x").IsWormViolation());
  EXPECT_TRUE(Status::RetentionViolation("x").IsRetentionViolation());
  EXPECT_TRUE(Status::KeyDestroyed("x").IsKeyDestroyed());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::TamperDetected("hash chain broken");
  EXPECT_EQ(s.ToString(), "TamperDetected: hash chain broken");
  EXPECT_FALSE(s.ok());
}

TEST(StatusTest, ErrorStatusIsNotOtherCodes) {
  Status s = Status::NotFound("x");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_FALSE(s.IsTamperDetected());
}

// ---- Result ---------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusConvertsToError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved.size(), 1000u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MEDVAULT_ASSIGN_OR_RETURN(int half, Half(x));
  MEDVAULT_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagatesValuesAndErrors) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 3 is odd
  EXPECT_TRUE(Quarter(5).status().IsInvalidArgument());
}

// ---- Slice ----------------------------------------------------------------

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice slice(s);
  EXPECT_EQ(slice.size(), 11u);
  EXPECT_EQ(slice[4], 'o');
  EXPECT_EQ(slice.ToString(), s);
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
  EXPECT_EQ(s.size(), 4u);
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, EqualityIncludesEmbeddedNuls) {
  std::string a("a\0b", 3);
  std::string b("a\0c", 3);
  EXPECT_TRUE(Slice(a) == Slice(a));
  EXPECT_TRUE(Slice(a) != Slice(b));
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("abcdef").starts_with("abc"));
  EXPECT_FALSE(Slice("abcdef").starts_with("abd"));
  EXPECT_FALSE(Slice("ab").starts_with("abc"));
  EXPECT_TRUE(Slice("ab").starts_with(""));
}

// ---- Coding ----------------------------------------------------------------

TEST(CodingTest, Fixed32RoundTrip) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 0xdeadbeefu, UINT32_MAX}) {
    std::string buf;
    PutFixed32(&buf, v);
    ASSERT_EQ(buf.size(), 4u);
    Slice in = buf;
    uint32_t out = 0;
    ASSERT_TRUE(GetFixed32(&in, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1},
                     uint64_t{0xdeadbeefcafef00d}, UINT64_MAX}) {
    std::string buf;
    PutFixed64(&buf, v);
    ASSERT_EQ(buf.size(), 8u);
    Slice in = buf;
    uint64_t out = 0;
    ASSERT_TRUE(GetFixed64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, Fixed32IsLittleEndian) {
  std::string buf;
  PutFixed32(&buf, 0x04030201);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  uint64_t v = GetParam();
  std::string buf;
  PutVarint64(&buf, v);
  EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  Slice in = buf;
  uint64_t out = 0;
  ASSERT_TRUE(GetVarint64(&in, &out));
  EXPECT_EQ(out, v);
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      (1ull << 21) - 1, 1ull << 21, (1ull << 28) - 1,
                      1ull << 35, 1ull << 42, 1ull << 49, 1ull << 56,
                      UINT64_MAX));

TEST(CodingTest, Varint32RejectsOversizedValues) {
  std::string buf;
  PutVarint64(&buf, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice in = buf;
  uint32_t out = 0;
  EXPECT_FALSE(GetVarint32(&in, &out));
}

TEST(CodingTest, VarintRejectsTruncatedInput) {
  std::string buf;
  PutVarint64(&buf, 1ull << 42);
  buf.resize(buf.size() - 1);
  Slice in = buf;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'z'));
  Slice in = buf;
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedRejectsLengthBeyondInput) {
  std::string buf;
  PutVarint64(&buf, 100);
  buf += "short";
  Slice in = buf;
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

TEST(CodingTest, MixedSequenceRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 7);
  PutVarint64(&buf, 1234567);
  PutLengthPrefixed(&buf, "payload");
  PutFixed64(&buf, 99);

  Slice in = buf;
  uint32_t a = 0;
  uint64_t b = 0, d = 0;
  std::string c;
  ASSERT_TRUE(GetFixed32(&in, &a));
  ASSERT_TRUE(GetVarint64(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedString(&in, &c));
  ASSERT_TRUE(GetFixed64(&in, &d));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 1234567u);
  EXPECT_EQ(c, "payload");
  EXPECT_EQ(d, 99u);
}

// ---- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, KnownVector) {
  // Standard CRC-32C check value for "123456789".
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "hello world, this is a checksum test";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t split = crc32c::Extend(crc32c::Value(data.data(), 10),
                                  data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, UINT32_MAX}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);  // masking must change the value
  }
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
  EXPECT_NE(crc32c::Value("ab", 2), crc32c::Value("ba", 2));
}

// ---- Hex --------------------------------------------------------------------

TEST(HexTest, EncodeKnown) {
  std::string data("\x00\xff\x10\xab", 4);
  EXPECT_EQ(HexEncode(data), "00ff10ab");
}

TEST(HexTest, RoundTrip) {
  std::string data;
  for (int i = 0; i < 256; i++) data.push_back(static_cast<char>(i));
  auto decoded = HexDecode(HexEncode(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(HexTest, DecodeAcceptsUppercase) {
  auto decoded = HexDecode("DEADBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(HexEncode(*decoded), "deadbeef");
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_TRUE(HexDecode("abc").status().IsInvalidArgument());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_TRUE(HexDecode("zz").status().IsInvalidArgument());
}

// ---- Clock ------------------------------------------------------------------

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceYears(30);
  EXPECT_EQ(clock.Now(), 150 + 30 * kMicrosPerYear);
}

TEST(ClockTest, SystemClockIsRoughlyNow) {
  SystemClock clock;
  Timestamp t1 = clock.Now();
  Timestamp t2 = clock.Now();
  EXPECT_GT(t1, 0);
  EXPECT_LE(t1, t2);
}

TEST(ClockTest, ThirtyYearsIsHuge) {
  // Sanity check on the constant used by the OSHA policy.
  EXPECT_GT(30 * kMicrosPerYear, 9 * 100000000000000LL);  // > ~28.5 years
}

// ---- Random -----------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, RangeStaysInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(7);
  for (int i = 0; i < 50; i++) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random rng(7);
  int heads = 0;
  for (int i = 0; i < 10000; i++) {
    if (rng.Bernoulli(0.5)) heads++;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

}  // namespace
}  // namespace medvault
