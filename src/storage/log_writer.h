#ifndef MEDVAULT_STORAGE_LOG_WRITER_H_
#define MEDVAULT_STORAGE_LOG_WRITER_H_

#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/log_format.h"

namespace medvault::storage::log {

/// Appends logical records to a log file (see log_format.h). Not
/// thread-safe; callers serialize.
class Writer {
 public:
  /// `dest` must be positioned at the start of a file or at a block
  /// boundary continuation; `initial_offset` is the current file size.
  explicit Writer(std::unique_ptr<WritableFile> dest,
                  uint64_t initial_offset = 0);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Appends one logical record. If `offset` is non-null it receives
  /// the file offset of the record's first fragment header (the address
  /// log::ReadRecordAt takes).
  Status AddRecord(const Slice& payload, uint64_t* offset = nullptr);

  /// Appends `n` logical records with their framing coalesced into a
  /// single buffered file Append — the batched-ingest fast path (one
  /// syscall/copy per batch instead of two per fragment). If `offsets`
  /// is non-null, offsets[i] receives record i's offset as in AddRecord.
  Status AddRecords(const Slice* payloads, size_t n,
                    uint64_t* offsets = nullptr);

  Status Flush() { return dest_->Flush(); }
  Status Sync() { return dest_->Sync(); }
  Status Close() { return dest_->Close(); }

  /// Bytes written through this writer plus the initial offset.
  uint64_t FileOffset() const { return file_offset_; }

  /// The underlying file — exposed so the vault's commit wave can sync
  /// it without taking the owning log's mutex. The caller must not close
  /// or append through it; the writer stays the only appender.
  WritableFile* file() { return dest_.get(); }

 private:
  /// Frames one logical record into `out`, tracking the block position
  /// in `block_offset` (same fragmenting rules as the incremental path).
  /// Returns the position in `out` of the record's first header.
  static size_t FrameRecord(const Slice& payload, std::string* out,
                            int* block_offset);

  std::unique_ptr<WritableFile> dest_;
  int block_offset_;  // current offset within the block
  uint64_t file_offset_;
};

}  // namespace medvault::storage::log

#endif  // MEDVAULT_STORAGE_LOG_WRITER_H_
