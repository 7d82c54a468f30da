// Record-oriented log tests: round trips, block-spanning records,
// corruption and truncation handling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/log_format.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"

namespace medvault::storage::log {
namespace {

class LogTest : public ::testing::Test {
 protected:
  std::unique_ptr<Writer> NewWriter(const std::string& name = "log") {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(name, &file).ok());
    return std::make_unique<Writer>(std::move(file));
  }

  std::unique_ptr<Reader> NewReader(const std::string& name = "log") {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile(name, &file).ok());
    return std::make_unique<Reader>(std::move(file));
  }

  std::vector<std::string> ReadAll(const std::string& name = "log") {
    auto reader = NewReader(name);
    std::vector<std::string> records;
    std::string record;
    while (reader->ReadRecord(&record)) records.push_back(record);
    last_status_ = reader->status();
    return records;
  }

  MemEnv env_;
  Status last_status_;
};

TEST_F(LogTest, EmptyLogReadsNothing) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_TRUE(ReadAll().empty());
  EXPECT_TRUE(last_status_.ok());
}

TEST_F(LogTest, SimpleRoundTrip) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("alpha").ok());
  ASSERT_TRUE(writer->AddRecord("beta").ok());
  ASSERT_TRUE(writer->AddRecord("").ok());  // empty records are legal
  ASSERT_TRUE(writer->Close().ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "beta");
  EXPECT_TRUE(records[2].empty());
  EXPECT_TRUE(last_status_.ok());
}

TEST_F(LogTest, RecordLargerThanBlockFragments) {
  std::string big(3 * kBlockSize, 'x');
  for (size_t i = 0; i < big.size(); i++) big[i] = static_cast<char>(i % 251);
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("before").ok());
  ASSERT_TRUE(writer->AddRecord(big).ok());
  ASSERT_TRUE(writer->AddRecord("after").ok());
  ASSERT_TRUE(writer->Close().ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "before");
  EXPECT_EQ(records[1], big);
  EXPECT_EQ(records[2], "after");
}

TEST_F(LogTest, RecordExactlyFillingBlockBoundary) {
  // Payload sized so header+payload lands exactly at the block edge.
  std::string payload(kBlockSize - kHeaderSize, 'q');
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord(payload).ok());
  ASSERT_TRUE(writer->AddRecord("next").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], payload);
  EXPECT_EQ(records[1], "next");
}

TEST_F(LogTest, TrailerSmallerThanHeaderIsSkipped) {
  // Leave 1..6 bytes at the end of the first block.
  for (int leftover = 1; leftover < kHeaderSize; leftover++) {
    std::string name = "log-" + std::to_string(leftover);
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile(name, &file).ok());
    Writer writer(std::move(file));
    std::string first(kBlockSize - kHeaderSize - leftover, 'a');
    ASSERT_TRUE(writer.AddRecord(first).ok());
    ASSERT_TRUE(writer.AddRecord("tail").ok());

    auto records = ReadAll(name);
    ASSERT_EQ(records.size(), 2u) << "leftover=" << leftover;
    EXPECT_EQ(records[1], "tail");
  }
}

TEST_F(LogTest, ManyRandomSizedRecords) {
  Random rng(1234);
  std::vector<std::string> expected;
  auto writer = NewWriter();
  for (int i = 0; i < 500; i++) {
    size_t len = rng.Uniform(2000);
    std::string record(len, '\0');
    for (size_t j = 0; j < len; j++) {
      record[j] = static_cast<char>(rng.Uniform(256));
    }
    expected.push_back(record);
    ASSERT_TRUE(writer->AddRecord(record).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(records[i], expected[i]) << "record " << i;
  }
}

TEST_F(LogTest, ReopenAndAppendContinues) {
  {
    auto writer = NewWriter();
    ASSERT_TRUE(writer->AddRecord("first").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewAppendableFile("log", &file).ok());
  Writer writer(std::move(file), size);
  ASSERT_TRUE(writer.AddRecord("second").ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(records[1], "second");
}

TEST_F(LogTest, CorruptedPayloadStopsWithCorruption) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("record one is long enough").ok());
  ASSERT_TRUE(writer->AddRecord("record two").ok());
  ASSERT_TRUE(writer->Close().ok());

  // Flip a payload byte in the first record.
  ASSERT_TRUE(env_.UnsafeOverwrite("log", kHeaderSize + 3, "X").ok());
  auto records = ReadAll();
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(last_status_.IsCorruption());
}

TEST_F(LogTest, CorruptedChecksumDetected) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  ASSERT_TRUE(env_.UnsafeOverwrite("log", 0, "\xde\xad\xbe\xef").ok());
  ReadAll();
  EXPECT_TRUE(last_status_.IsCorruption());
}

TEST_F(LogTest, TornFinalRecordIsCleanEof) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("complete").ok());
  ASSERT_TRUE(writer->AddRecord("torn-record-payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  // Cut into the middle of the second record: WAL recovery semantics
  // treat a torn tail as clean EOF, not corruption.
  ASSERT_TRUE(env_.UnsafeTruncate("log", size - 5).ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "complete");
  EXPECT_TRUE(last_status_.ok());
}

TEST_F(LogTest, TornHeaderIsCleanEof) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("complete").ok());
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  // Append 3 bytes of a new header then "crash".
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_.NewAppendableFile("log", &f).ok());
  ASSERT_TRUE(f->Append("\x01\x02\x03").ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(last_status_.ok());
}

TEST_F(LogTest, CorruptionMidFileIsNotTreatedAsTornTail) {
  // Damage in the middle of the log — with intact records after it —
  // must surface as corruption (tamper evidence), never be "recovered"
  // like a torn tail.
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("first-record-payload").ok());
  ASSERT_TRUE(writer->AddRecord("second-record-payload").ok());
  ASSERT_TRUE(writer->AddRecord("third-record-payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  // Flip a payload byte inside the SECOND record.
  uint64_t second_offset = 2 * kHeaderSize + 20 + 3;
  ASSERT_TRUE(env_.UnsafeOverwrite("log", second_offset, "X").ok());

  auto records = ReadAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first-record-payload");
  EXPECT_TRUE(last_status_.IsCorruption());
}

TEST_F(LogTest, ValidEndTracksLastCompleteRecord) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("one").ok());
  ASSERT_TRUE(writer->AddRecord("two").ok());
  uint64_t complete_size = writer->FileOffset();
  ASSERT_TRUE(writer->AddRecord("torn-away-payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  ASSERT_TRUE(env_.UnsafeTruncate("log", size - 4).ok());

  auto reader = NewReader();
  std::string record;
  while (reader->ReadRecord(&record)) {
  }
  ASSERT_TRUE(reader->status().ok());
  EXPECT_EQ(reader->ValidEnd(), complete_size);
}

TEST_F(LogTest, ValidEndExcludesWholeTornFragmentedRecord) {
  // A record spanning several blocks torn in a LATER fragment must be
  // cut as a whole — its earlier (individually valid) fragments carry
  // no complete record.
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("intact").ok());
  uint64_t intact_size = writer->FileOffset();
  std::string big(2 * kBlockSize + 100, 'z');
  ASSERT_TRUE(writer->AddRecord(big).ok());
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  // Cut inside the big record's final fragment.
  ASSERT_TRUE(env_.UnsafeTruncate("log", size - 50).ok());

  auto reader = NewReader();
  std::string record;
  std::vector<std::string> records;
  while (reader->ReadRecord(&record)) records.push_back(record);
  ASSERT_TRUE(reader->status().ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "intact");
  EXPECT_EQ(reader->ValidEnd(), intact_size);
}

TEST_F(LogTest, OpenLogForAppendTruncatesTornTailAndContinues) {
  {
    auto writer = NewWriter();
    ASSERT_TRUE(writer->AddRecord("kept-1").ok());
    ASSERT_TRUE(writer->AddRecord("kept-2").ok());
    ASSERT_TRUE(writer->AddRecord("torn-record-payload").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  ASSERT_TRUE(env_.UnsafeTruncate("log", size - 6).ok());

  std::vector<std::string> replayed;
  LogOpenResult res;
  ASSERT_TRUE(OpenLogForAppend(&env_, "log",
                               [&](const Slice& rec, uint64_t) {
                                 replayed.push_back(rec.ToString());
                                 return Status::OK();
                               },
                               &res)
                  .ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], "kept-1");
  EXPECT_EQ(replayed[1], "kept-2");
  EXPECT_GT(res.dropped_bytes, 0u);
  uint64_t after = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &after).ok());
  EXPECT_EQ(after, res.valid_size);

  // The returned writer appends seamlessly past the cut.
  ASSERT_TRUE(res.writer->AddRecord("after-recovery").ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], "after-recovery");
  EXPECT_TRUE(last_status_.ok());
}

TEST_F(LogTest, OpenLogForAppendPropagatesMidFileCorruption) {
  {
    auto writer = NewWriter();
    ASSERT_TRUE(writer->AddRecord("first-record-payload").ok());
    ASSERT_TRUE(writer->AddRecord("second-record-payload").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  ASSERT_TRUE(env_.UnsafeOverwrite("log", kHeaderSize + 2, "X").ok());
  uint64_t before = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &before).ok());

  LogOpenResult res;
  Status s = OpenLogForAppend(
      &env_, "log", [](const Slice&, uint64_t) { return Status::OK(); }, &res);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // Corruption is tamper evidence: the file must NOT have been cut.
  uint64_t after = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &after).ok());
  EXPECT_EQ(after, before);
}

TEST_F(LogTest, FileOffsetTracksBytes) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("12345").ok());
  EXPECT_EQ(writer->FileOffset(), static_cast<uint64_t>(kHeaderSize) + 5);
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize("log", &size).ok());
  EXPECT_EQ(writer->FileOffset(), size);
}

// Record offsets: the writer's (single and batched appends) and the
// reader's LastRecordOffset agree, and ReadRecordAt reads each record
// back from its offset alone — across block trailers and fragments.
TEST_F(LogTest, RecordOffsetsAgreeAndReadBack) {
  std::vector<std::string> payloads;
  Random rng(7);
  for (int i = 0; i < 60; i++) {
    // Mostly small, some block-spanning, sizes chosen so block ends fall
    // inside headers (trailers) and inside payloads (fragments).
    size_t len = i % 13 == 0 ? kBlockSize + rng.Uniform(kBlockSize)
                             : rng.Uniform(3000);
    payloads.push_back(std::string(len, static_cast<char>('a' + i % 26)));
  }
  // Leaves 3 bytes in the first block: record 1 starts after a trailer.
  payloads[0] = std::string(kBlockSize - kHeaderSize - 3, 't');
  payloads[3] = std::string(100, 'c');

  std::vector<uint64_t> written(payloads.size());
  auto writer = NewWriter();
  for (size_t i = 0; i < 30; i++) {
    ASSERT_TRUE(writer->AddRecord(payloads[i], &written[i]).ok());
  }
  std::vector<Slice> rest(payloads.begin() + 30, payloads.end());
  ASSERT_TRUE(
      writer->AddRecords(rest.data(), rest.size(), &written[30]).ok());
  const uint64_t end = writer->FileOffset();

  EXPECT_EQ(written[1], static_cast<uint64_t>(kBlockSize));

  auto reader = NewReader();
  std::string record;
  for (size_t i = 0; i < payloads.size(); i++) {
    ASSERT_TRUE(reader->ReadRecord(&record)) << i;
    EXPECT_EQ(reader->LastRecordOffset(), written[i]) << i;
  }

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_.NewRandomAccessFile("log", &file).ok());
  for (size_t i = 0; i < payloads.size(); i++) {
    const uint64_t limit = i + 1 < payloads.size() ? written[i + 1] : end;
    ASSERT_TRUE(ReadRecordAt(*file, written[i], limit, &record).ok()) << i;
    EXPECT_EQ(record, payloads[i]) << i;
  }

  // A limit short of the record, a flipped payload byte and an offset
  // that is not a record start are all corruption, never a wrong record.
  EXPECT_TRUE(ReadRecordAt(*file, written[3], written[3] + kHeaderSize + 1,
                           &record)
                  .IsCorruption());
  EXPECT_TRUE(ReadRecordAt(*file, written[3] + 1, written[4], &record)
                  .IsCorruption());
  ASSERT_TRUE(
      env_.UnsafeOverwrite("log", written[3] + kHeaderSize, "#").ok());
  EXPECT_TRUE(
      ReadRecordAt(*file, written[3], written[4], &record).IsCorruption());
}

}  // namespace
}  // namespace medvault::storage::log
