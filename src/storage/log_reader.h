#ifndef MEDVAULT_STORAGE_LOG_READER_H_
#define MEDVAULT_STORAGE_LOG_READER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/log_format.h"

namespace medvault::storage::log {

/// Sequentially reads logical records written by log::Writer.
///
/// Corruption handling: a bad checksum or malformed fragment sequence
/// stops iteration and is reported via status() as kCorruption (callers
/// in the audit path escalate that to tamper evidence).
class Reader {
 public:
  explicit Reader(std::unique_ptr<SequentialFile> src);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads the next logical record into *record. Returns false at EOF or
  /// on corruption; check status() to distinguish.
  bool ReadRecord(std::string* record);

  /// OK at clean EOF; kCorruption if the log was damaged.
  const Status& status() const { return status_; }

  /// File offset just past the last complete logical record returned by
  /// ReadRecord (0 if none yet). After draining the log, recovery
  /// truncates a torn tail down to this offset — but only while
  /// status() is OK; a kCorruption mid-file is tamper evidence, never
  /// cut away. May land before a block trailer the reader skipped;
  /// that is fine, log::Writer re-derives its block phase from the
  /// resulting size.
  uint64_t ValidEnd() const { return last_record_end_; }

  /// File offset of the first fragment header of the last logical
  /// record returned by ReadRecord — the address ReadRecordAt takes.
  uint64_t LastRecordOffset() const { return last_record_offset_; }

 private:
  /// Reads the next physical record; returns the type or an eof/bad marker.
  int ReadPhysicalRecord(Slice* fragment);

  /// Refills buffer_ from the file if it holds less than a header.
  bool MaybeRefill();

  std::unique_ptr<SequentialFile> src_;
  std::string backing_;
  Slice buffer_;
  bool eof_ = false;
  Status status_;
  uint64_t bytes_consumed_ = 0;   ///< total bytes read from src_
  uint64_t last_record_end_ = 0;  ///< see ValidEnd()
  uint64_t last_record_offset_ = 0;    ///< see LastRecordOffset()
  uint64_t last_fragment_offset_ = 0;  ///< header of the last fragment read

  static constexpr int kEof = kMaxRecordType + 1;
  static constexpr int kBadRecord = kMaxRecordType + 2;
};

/// Where one logical record sits in a log: ReadRecordAt's address and
/// read bound. Logs read back after replay keep one per record in place
/// of the record's bytes.
struct RecordSpan {
  uint64_t offset = 0;
  uint64_t limit = 0;
};

/// Reads the one logical record whose first fragment header starts at
/// `offset` (a Reader::LastRecordOffset or Writer::AddRecords offset),
/// with a single positional read of the bytes [offset, limit). `limit`
/// may lie past the record's end (e.g. the next record's offset).
/// kCorruption if the bytes there do not frame a whole, checksummed
/// record.
Status ReadRecordAt(const RandomAccessFile& file, uint64_t offset,
                    uint64_t limit, std::string* record);

}  // namespace medvault::storage::log

#endif  // MEDVAULT_STORAGE_LOG_READER_H_
