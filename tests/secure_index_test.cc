// Secure index tests: blinded search, privacy of on-disk bytes, secure
// deletion of postings via crypto-shredding, persistence.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "core/keystore.h"
#include "core/secure_index.h"
#include "storage/log_format.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class SecureIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keystore_ = std::make_unique<KeyStore>(&env_, "keys.db",
                                           std::string(32, 'M'), "seed");
    ASSERT_TRUE(keystore_->Open().ok());
    OpenIndex();
  }

  void OpenIndex() {
    index_ = std::make_unique<SecureIndex>(&env_, "index.log",
                                           std::string(32, 'I'),
                                           keystore_.get());
    ASSERT_TRUE(index_->Open().ok());
  }

  void AddRecord(const std::string& id,
                 const std::vector<std::string>& terms) {
    ASSERT_TRUE(keystore_->CreateKey(id).ok());
    ASSERT_TRUE(index_->AddPostings(id, terms).ok());
  }

  storage::MemEnv env_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<SecureIndex> index_;
};

TEST_F(SecureIndexTest, SearchFindsIndexedRecords) {
  AddRecord("r-1", {"cancer", "chemo"});
  AddRecord("r-2", {"diabetes"});
  AddRecord("r-3", {"cancer"});

  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_NE(std::find(hits->begin(), hits->end(), "r-1"), hits->end());
  EXPECT_NE(std::find(hits->begin(), hits->end(), "r-3"), hits->end());

  hits = index_->Search("diabetes");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-2");
}

TEST_F(SecureIndexTest, SearchIsCaseInsensitive) {
  AddRecord("r-1", {"Cancer"});
  auto hits = index_->Search("CANCER");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(SecureIndexTest, UnknownTermReturnsEmpty) {
  AddRecord("r-1", {"cancer"});
  auto hits = index_->Search("nonexistent");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(SecureIndexTest, DuplicatePostingsDeduplicatedInResults) {
  AddRecord("r-1", {"cancer", "cancer"});
  ASSERT_TRUE(index_->AddPostings("r-1", {"cancer"}).ok());  // re-index
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(index_->TotalPostingCount(), 3u);
}

TEST_F(SecureIndexTest, RepostedTermAnswersOnceAtFirstPlace) {
  // r-2 re-posts "cancer" with each of three corrections while other
  // records post it in between: r-2 is answered once, where its first
  // posting put it, in a single search and in a conjunctive one.
  AddRecord("r-1", {"cancer"});
  AddRecord("r-2", {"cancer", "chemo"});
  AddRecord("r-3", {"cancer", "chemo"});
  for (int correction = 0; correction < 3; ++correction) {
    ASSERT_TRUE(index_->AddPostings("r-2", {"cancer", "chemo"}).ok());
    AddRecord("r-" + std::to_string(4 + correction), {"cancer", "chemo"});
  }
  const std::vector<RecordId> expected = {"r-1", "r-2", "r-3",
                                          "r-4", "r-5", "r-6"};
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, expected);
  auto both = index_->SearchAll({"chemo", "cancer"});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(*both, std::vector<RecordId>(expected.begin() + 1,
                                         expected.end()));
  OpenIndex();
  hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, expected);
}

TEST_F(SecureIndexTest, RawIndexBytesLeakNoKeywordsOrIds) {
  AddRecord("r-1", {"cancer", "hiv", "oncology"});
  std::string raw;
  ASSERT_TRUE(storage::ReadFileToString(&env_, "index.log", &raw).ok());
  EXPECT_EQ(raw.find("cancer"), std::string::npos);
  EXPECT_EQ(raw.find("hiv"), std::string::npos);
  EXPECT_EQ(raw.find("oncology"), std::string::npos);
  EXPECT_EQ(raw.find("r-1"), std::string::npos);
}

TEST_F(SecureIndexTest, CryptoShreddingKillsPostings) {
  AddRecord("r-1", {"cancer"});
  AddRecord("r-2", {"cancer"});
  EXPECT_EQ(index_->LivePostingCount(), 2u);

  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-2");
  EXPECT_EQ(index_->LivePostingCount(), 1u);
  EXPECT_EQ(index_->DeadPostingCount(), 1u);
}

TEST_F(SecureIndexTest, AddPostingsRequiresLiveKey) {
  ASSERT_TRUE(keystore_->CreateKey("r-1").ok());
  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  EXPECT_TRUE(
      index_->AddPostings("r-1", {"term"}).IsKeyDestroyed());
  EXPECT_TRUE(index_->AddPostings("ghost", {"term"}).IsNotFound());
}

TEST_F(SecureIndexTest, PersistsAcrossReopen) {
  AddRecord("r-1", {"cancer", "chemo"});
  index_.reset();
  OpenIndex();
  auto hits = index_->Search("chemo");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-1");
}

TEST_F(SecureIndexTest, ShreddingBeforeReopenStillKillsPostings) {
  AddRecord("r-1", {"cancer"});
  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  index_.reset();
  OpenIndex();
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  EXPECT_EQ(index_->DeadPostingCount(), 1u);
}

TEST_F(SecureIndexTest, TermCountLeaksOnlyCardinality) {
  AddRecord("r-1", {"a1", "b2", "c3"});
  AddRecord("r-2", {"a1"});
  EXPECT_EQ(index_->TermCount(), 3u);
  EXPECT_EQ(index_->TotalPostingCount(), 4u);
}

// Pins what a fixed corpus answers: ids and their order from Search
// (log order, first hit of each record) and SearchAll (the rarest term's
// order), and the posting counts, with a re-indexed record, a batch, a
// case-folded term and a shredded record, before and after the key
// store and the index are both replayed from their logs.
TEST_F(SecureIndexTest, SearchPinHoldsAcrossShredAndReopen) {
  using Ids = std::vector<RecordId>;
  AddRecord("r-1", {"cancer", "chemo", "oncology"});
  AddRecord("r-2", {"diabetes", "insulin"});
  AddRecord("r-3", {"cancer", "radiology"});
  AddRecord("r-4", {"cancer", "chemo"});
  AddRecord("r-5", {"diabetes", "cancer"});
  AddRecord("r-6", {"Chemo", "ONCOLOGY"});
  AddRecord("r-7", {"radiology"});
  AddRecord("r-8", {"cancer", "chemo", "oncology"});
  ASSERT_TRUE(index_->AddPostings("r-3", {"chemo"}).ok());
  ASSERT_TRUE(index_->AddPostings("r-1", {"cancer"}).ok());
  ASSERT_TRUE(keystore_->CreateKey("r-9").ok());
  ASSERT_TRUE(keystore_->CreateKey("r-10").ok());
  ASSERT_TRUE(index_
                  ->AddPostingsBatch({{"r-9", {"insulin", "cancer"}},
                                      {"r-10", {"oncology"}}})
                  .ok());
  ASSERT_TRUE(keystore_->DestroyKey("r-4").ok());

  const auto check = [&] {
    const std::vector<std::pair<std::string, Ids>> searches = {
        {"cancer", {"r-1", "r-3", "r-5", "r-8", "r-9"}},
        {"CHEMO", {"r-1", "r-6", "r-8", "r-3"}},
        {"oncology", {"r-1", "r-6", "r-8", "r-10"}},
        {"diabetes", {"r-2", "r-5"}},
        {"insulin", {"r-2", "r-9"}},
        {"radiology", {"r-3", "r-7"}},
        {"absent", {}},
    };
    for (const auto& [term, want] : searches) {
      auto hits = index_->Search(term);
      ASSERT_TRUE(hits.ok()) << term << ": " << hits.status().ToString();
      EXPECT_EQ(*hits, want) << term;
    }
    const std::vector<std::pair<std::vector<std::string>, Ids>> all = {
        {{"chemo", "cancer"}, {"r-1", "r-8", "r-3"}},
        {{"oncology", "chemo"}, {"r-1", "r-6", "r-8"}},
        {{"cancer", "insulin"}, {"r-9"}},
        {{"diabetes", "radiology"}, {}},
        {{"cancer", "absent"}, {}},
        {{}, {}},
    };
    for (const auto& [terms, want] : all) {
      auto hits = index_->SearchAll(terms);
      ASSERT_TRUE(hits.ok()) << hits.status().ToString();
      EXPECT_EQ(*hits, want) << terms.size();
    }
    EXPECT_EQ(index_->TotalPostingCount(), 22u);
    EXPECT_EQ(index_->LivePostingCount(), 20u);
    EXPECT_EQ(index_->DeadPostingCount(), 2u);
    EXPECT_EQ(index_->TermCount(), 6u);
    EXPECT_TRUE(index_->VerifyIntegrity().ok());
  };
  check();

  index_.reset();
  keystore_ = std::make_unique<KeyStore>(&env_, "keys.db",
                                         std::string(32, 'M'), "seed");
  ASSERT_TRUE(keystore_->Open().ok());
  OpenIndex();
  check();
}

TEST_F(SecureIndexTest, ConcurrentSearchesShareTheReadHandle) {
  // Searches are const and run under a shared lock in the vault; they
  // all read postings through the index's one read-back handle.
  for (int r = 1; r <= 40; r++) {
    AddRecord("r-" + std::to_string(r),
              {"term-" + std::to_string(r % 4), "all"});
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 50; i++) {
        auto some = index_->Search("term-" + std::to_string((t + i) % 4));
        auto all = index_->SearchAll({"all", "term-0"});
        ASSERT_TRUE(some.ok()) << some.status().ToString();
        ASSERT_TRUE(all.ok()) << all.status().ToString();
        EXPECT_EQ(some->size(), 10u);
        EXPECT_EQ(all->size(), 10u);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
}

TEST_F(SecureIndexTest, DifferentIndexMasterKeysAreDisjoint) {
  AddRecord("r-1", {"cancer"});
  // An index with a different blinding key cannot find the postings.
  SecureIndex other(&env_, "index.log", std::string(32, 'Z'),
                    keystore_.get());
  ASSERT_TRUE(other.Open().ok());
  auto hits = other.Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

// Search reads each posting back from index.log, so bytes changed after
// the open are caught by the next search rather than answered from
// memory. Each case indexes r-1 under "cancer" and then r-2 under
// "chemo": two single-fragment postings of equal length, back to back.
class SecureIndexReadBackTest : public SecureIndexTest {
 protected:
  void SetUp() override {
    SecureIndexTest::SetUp();
    AddRecord("r-1", {"cancer"});
    AddRecord("r-2", {"chemo"});
  }

  /// Offset of posting `i` (0 or 1) in index.log.
  uint64_t PostingOffset(int i) {
    std::string raw;
    EXPECT_TRUE(storage::ReadFileToString(&env_, "index.log", &raw).ok());
    return i == 0 ? 0 : storage::log::kHeaderSize + PayloadLength(raw, 0);
  }

  /// Posting `i`'s payload as it sits in index.log.
  std::string Payload(int i) {
    std::string raw;
    EXPECT_TRUE(storage::ReadFileToString(&env_, "index.log", &raw).ok());
    const uint64_t offset = PostingOffset(i);
    return raw.substr(offset + storage::log::kHeaderSize,
                      PayloadLength(raw, offset));
  }

  /// Writes `payload` over posting `i` under a checksum that matches
  /// it, so only the posting's own checks can tell.
  void Reframe(int i, const std::string& payload) {
    const uint64_t offset = PostingOffset(i);
    const char type = static_cast<char>(storage::log::RecordType::kFull);
    std::string frame(storage::log::kHeaderSize, '\0');
    EncodeFixed32(frame.data(),
                  crc32c::Mask(crc32c::Extend(crc32c::Value(&type, 1),
                                              payload.data(),
                                              payload.size())));
    frame[4] = static_cast<char>(payload.size() & 0xff);
    frame[5] = static_cast<char>(payload.size() >> 8);
    frame[6] = type;
    ASSERT_TRUE(env_.UnsafeOverwrite("index.log", offset, frame + payload)
                    .ok());
  }

  static size_t PayloadLength(const std::string& raw, uint64_t offset) {
    return static_cast<uint8_t>(raw[offset + 4]) |
           (static_cast<size_t>(static_cast<uint8_t>(raw[offset + 5])) << 8);
  }
};

TEST_F(SecureIndexReadBackTest, FlippedByteFailsTheFrameCheck) {
  const uint64_t last = PostingOffset(1) - 1;  // r-1's sealed id tag
  ASSERT_TRUE(env_.UnsafeOverwrite("index.log", last, "\x5a").ok());
  EXPECT_TRUE(index_->Search("cancer").status().IsTamperDetected());
  auto other = index_->Search("chemo");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(*other, std::vector<RecordId>{"r-2"});
}

TEST_F(SecureIndexReadBackTest, FlippedSealedByteFailsAuthentication) {
  std::string payload = Payload(0);
  payload.back() ^= 0x01;
  Reframe(0, payload);
  EXPECT_TRUE(index_->Search("cancer").status().IsTamperDetected());
}

TEST_F(SecureIndexReadBackTest, PostingFramedUnderAnotherTermIsRefused) {
  // r-1's posting, re-filed under the blind of "chemo".
  std::string payload = Payload(0);
  const std::string chemo = Payload(1);
  payload.replace(1, 32, chemo, 1, 32);
  Reframe(0, payload);
  EXPECT_TRUE(index_->Search("cancer").status().IsTamperDetected());
  EXPECT_TRUE(index_->SearchAll({"chemo", "cancer"})
                  .status()
                  .IsTamperDetected());
}

TEST_F(SecureIndexReadBackTest, TruncatedLogIsRefused) {
  ASSERT_TRUE(env_.UnsafeTruncate("index.log", PostingOffset(1) + 10).ok());
  auto first = index_->Search("cancer");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, std::vector<RecordId>{"r-1"});
  EXPECT_TRUE(index_->Search("chemo").status().IsTamperDetected());
}

}  // namespace
}  // namespace medvault::core
