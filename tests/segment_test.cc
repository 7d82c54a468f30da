// SegmentStore tests: append/read, sealing, rollover, WORM discipline,
// tamper detection via frame CRCs, reopen behaviour.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/mem_env.h"
#include "storage/segment.h"

namespace medvault::storage {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  SegmentStore::Options SmallSegments() {
    SegmentStore::Options options;
    options.max_segment_bytes = 256;
    return options;
  }

  MemEnv env_;
};

TEST_F(SegmentTest, AppendAndReadBack) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  auto h1 = store.Append("first entry");
  auto h2 = store.Append("second entry");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*store.Read(*h1), "first entry");
  EXPECT_EQ(*store.Read(*h2), "second entry");
}

TEST_F(SegmentTest, HandleEncodingRoundTrip) {
  EntryHandle h{42, 12345, 678};
  auto decoded = EntryHandle::Decode(h.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_FALSE(EntryHandle::Decode("junk!").ok());
}

TEST_F(SegmentTest, FileNamesParseOnlyAsWritten) {
  for (uint64_t id : {1ull, 42ull, 99999999ull, 123456789ull}) {
    uint64_t parsed = 0;
    EXPECT_TRUE(ParseSegmentBaseName(SegmentBaseName(id), &parsed)) << id;
    EXPECT_EQ(parsed, id);
  }
  EXPECT_EQ(SegmentBaseName(1), "seg-00000001");
  for (const char* name :
       {"seg-junk", "seg-1", "seg-00000001.tmp", "seg-", "seg-+0000001",
        "seg--0000001", "xseg-00000001", "", "seg-99999999999999999999"}) {
    uint64_t parsed = 0;
    EXPECT_FALSE(ParseSegmentBaseName(name, &parsed)) << name;
  }
}

TEST_F(SegmentTest, OpenIgnoresFilesThatAreNotSegments) {
  {
    SegmentStore store(&env_, "seg", {});
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append("persisted").ok());
  }
  ASSERT_TRUE(
      WriteStringToFile(&env_, Slice("stray"), "seg/seg-00000009.tmp", false)
          .ok());
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  const std::vector<uint64_t> ids = store.SegmentIds();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.front(), 1u);
  EXPECT_LT(ids.back(), 9u);
  EXPECT_TRUE(store.Append("after the stray file").ok());
}

TEST_F(SegmentTest, RollsToNewSegmentWhenFull) {
  SegmentStore store(&env_, "seg", SmallSegments());
  ASSERT_TRUE(store.Open().ok());
  std::vector<EntryHandle> handles;
  for (int i = 0; i < 20; i++) {
    auto h = store.Append(std::string(100, 'a' + (i % 26)));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  EXPECT_GT(store.SegmentIds().size(), 1u);
  // All entries remain readable across segments.
  for (int i = 0; i < 20; i++) {
    auto content = store.Read(handles[i]);
    ASSERT_TRUE(content.ok());
    EXPECT_EQ((*content)[0], 'a' + (i % 26));
  }
}

TEST_F(SegmentTest, SealedSegmentsAreMarked) {
  SegmentStore store(&env_, "seg", SmallSegments());
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store.Append(std::string(100, 'x')).ok());
  }
  auto ids = store.SegmentIds();
  ASSERT_GT(ids.size(), 1u);
  for (size_t i = 0; i + 1 < ids.size(); i++) {
    EXPECT_TRUE(store.IsSealed(ids[i])) << "segment " << ids[i];
  }
  EXPECT_FALSE(store.IsSealed(ids.back()));  // active
}

TEST_F(SegmentTest, SealActiveStartsFreshSegment) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append("entry").ok());
  auto before = store.SegmentIds();
  ASSERT_TRUE(store.SealActive().ok());
  auto after = store.SegmentIds();
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_TRUE(store.IsSealed(before.back()));
}

TEST_F(SegmentTest, ForEachEntryVisitsAllInOrder) {
  SegmentStore store(&env_, "seg", SmallSegments());
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 15; i++) {
    ASSERT_TRUE(store.Append("entry-" + std::to_string(i)).ok());
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(store
                  .ForEachEntry([&](const EntryHandle& h, const Slice& data) {
                    seen.push_back(data.ToString());
                    return true;
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 15u);
  for (int i = 0; i < 15; i++) {
    EXPECT_EQ(seen[i], "entry-" + std::to_string(i));
  }
}

TEST_F(SegmentTest, ForEachEntryEarlyStop) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(store.Append("e").ok());
  }
  int count = 0;
  ASSERT_TRUE(store
                  .ForEachEntry([&](const EntryHandle&, const Slice&) {
                    return ++count < 3;
                  })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST_F(SegmentTest, TamperedEntryFailsCrc) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  auto h = store.Append("sensitive medical data");
  ASSERT_TRUE(h.ok());
  // Insider flips a payload byte via raw disk access.
  std::string file = store.SegmentFileName(h->segment_id);
  ASSERT_TRUE(env_.UnsafeOverwrite(file, h->offset + 8 + 2, "X").ok());
  EXPECT_TRUE(store.Read(*h).status().IsCorruption());
  EXPECT_TRUE(store
                  .ForEachEntry([](const EntryHandle&, const Slice&) {
                    return true;
                  })
                  .IsCorruption());
}

TEST_F(SegmentTest, ReadRejectsTruncatedEntry) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  auto h = store.Append("will be cut off");
  ASSERT_TRUE(h.ok());
  std::string file = store.SegmentFileName(h->segment_id);
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(file, &size).ok());
  ASSERT_TRUE(env_.UnsafeTruncate(file, size - 4).ok());
  EXPECT_TRUE(store.Read(*h).status().IsCorruption());
}

TEST_F(SegmentTest, ReopenSealsPreviousSegments) {
  EntryHandle h1;
  {
    SegmentStore store(&env_, "seg", {});
    ASSERT_TRUE(store.Open().ok());
    auto h = store.Append("persisted");
    ASSERT_TRUE(h.ok());
    h1 = *h;
  }
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.IsSealed(h1.segment_id));
  EXPECT_EQ(*store.Read(h1), "persisted");
  // New appends go to a fresh segment.
  auto h2 = store.Append("new data");
  ASSERT_TRUE(h2.ok());
  EXPECT_GT(h2->segment_id, h1.segment_id);
}

TEST_F(SegmentTest, OpensWithoutWritesReuseTheEmptyActiveSegment) {
  const auto file_count = [&] {
    std::vector<std::string> children;
    EXPECT_TRUE(env_.GetChildren("seg", &children).ok());
    return children.size();
  };
  for (int i = 0; i < 6; i++) {
    SegmentStore store(&env_, "seg", {});
    ASSERT_TRUE(store.Open().ok());
  }
  EXPECT_EQ(file_count(), 1u);

  EntryHandle h1;
  {
    SegmentStore store(&env_, "seg", {});
    ASSERT_TRUE(store.Open().ok());
    auto h = store.Append("persisted");
    ASSERT_TRUE(h.ok());
    h1 = *h;
  }
  EXPECT_EQ(file_count(), 1u);
  // The open after a write starts exactly one new segment; later opens
  // without writes keep using it.
  for (int i = 0; i < 3; i++) {
    SegmentStore store(&env_, "seg", {});
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(file_count(), 2u);
    EXPECT_TRUE(store.IsSealed(h1.segment_id));
    EXPECT_EQ(*store.Read(h1), "persisted");
  }
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  auto h2 = store.Append("new data");
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->segment_id, h1.segment_id + 1);
  EXPECT_EQ(*store.Read(*h2), "new data");
  EXPECT_EQ(file_count(), 2u);
}

TEST_F(SegmentTest, DropSegmentOnlyWhenSealed) {
  SegmentStore store(&env_, "seg", SmallSegments());
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store.Append(std::string(100, 'x')).ok());
  }
  auto ids = store.SegmentIds();
  ASSERT_GT(ids.size(), 1u);
  EXPECT_TRUE(store.DropSegment(ids.back()).IsWormViolation());  // active
  EXPECT_TRUE(store.DropSegment(ids.front()).ok());              // sealed
  EXPECT_TRUE(store.DropSegment(ids.front()).IsNotFound());
}

TEST_F(SegmentTest, TotalBytesGrows) {
  SegmentStore store(&env_, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.TotalBytes(), 0u);
  ASSERT_TRUE(store.Append("12345").ok());
  EXPECT_EQ(store.TotalBytes(), 8u + 5u);  // frame header + payload
}

TEST_F(SegmentTest, OperationsRequireOpen) {
  SegmentStore store(&env_, "seg", {});
  EXPECT_TRUE(store.Append("x").status().IsFailedPrecondition());
  EXPECT_TRUE(store.SealActive().IsFailedPrecondition());
}

}  // namespace
}  // namespace medvault::storage
