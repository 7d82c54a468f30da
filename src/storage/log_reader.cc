#include "storage/log_reader.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace medvault::storage::log {

namespace {

/// Payload length from the fragment header at `header`.
uint32_t FragmentLength(const char* header) {
  return static_cast<unsigned char>(header[4]) |
         (static_cast<unsigned char>(header[5]) << 8);
}

/// Whether the stored checksum covers the type byte and the `length`
/// payload bytes that follow the header.
bool FragmentChecksumOk(const char* header, uint32_t length) {
  uint32_t crc = crc32c::Value(header + 6, 1);
  crc = crc32c::Extend(crc, header + kHeaderSize, length);
  return crc == crc32c::Unmask(DecodeFixed32(header));
}

}  // namespace

Reader::Reader(std::unique_ptr<SequentialFile> src) : src_(std::move(src)) {}

bool Reader::MaybeRefill() {
  if (buffer_.size() >= kHeaderSize || eof_) return !buffer_.empty();
  // Drop any block trailer smaller than a header and read the next block.
  backing_.clear();
  Status s = src_->Read(kBlockSize, &backing_);
  if (!s.ok()) {
    status_ = s;
    eof_ = true;
    buffer_ = Slice();
    return false;
  }
  if (backing_.empty()) {
    eof_ = true;
    buffer_ = Slice();
    return false;
  }
  if (backing_.size() < kBlockSize) eof_ = true;
  bytes_consumed_ += backing_.size();
  buffer_ = Slice(backing_);
  return true;
}

int Reader::ReadPhysicalRecord(Slice* fragment) {
  while (true) {
    if (buffer_.size() < kHeaderSize) {
      if (eof_) {
        // A partial header at EOF means a torn final write, treated as a
        // clean end (standard WAL recovery semantics).
        buffer_ = Slice();
        return kEof;
      }
      buffer_ = Slice();
      if (!MaybeRefill()) return kEof;
      continue;
    }

    const char* header = buffer_.data();
    const uint32_t length = FragmentLength(header);
    const int type = static_cast<unsigned char>(header[6]);

    if (type == static_cast<int>(RecordType::kZero) && length == 0) {
      // Block trailer; skip the rest of this block.
      buffer_ = Slice();
      if (!MaybeRefill()) return kEof;
      continue;
    }

    if (kHeaderSize + length > buffer_.size()) {
      if (eof_) {
        // Torn final record.
        buffer_ = Slice();
        return kEof;
      }
      return kBadRecord;
    }

    if (!FragmentChecksumOk(header, length)) {
      buffer_ = Slice();
      return kBadRecord;
    }

    *fragment = Slice(header + kHeaderSize, length);
    last_fragment_offset_ = bytes_consumed_ - buffer_.size();
    buffer_.RemovePrefix(kHeaderSize + length);

    if (type < 1 || type > kMaxRecordType) return kBadRecord;
    return type;
  }
}

bool Reader::ReadRecord(std::string* record) {
  record->clear();
  if (!status_.ok()) return false;

  std::string assembled;
  bool in_fragmented = false;
  uint64_t record_offset = 0;

  while (true) {
    Slice fragment;
    int type = ReadPhysicalRecord(&fragment);
    switch (type) {
      case static_cast<int>(RecordType::kFull):
        if (in_fragmented) {
          status_ = Status::Corruption("full record amid fragments");
          return false;
        }
        record->assign(fragment.data(), fragment.size());
        last_record_offset_ = last_fragment_offset_;
        last_record_end_ = bytes_consumed_ - buffer_.size();
        return true;
      case static_cast<int>(RecordType::kFirst):
        if (in_fragmented) {
          status_ = Status::Corruption("two first fragments in a row");
          return false;
        }
        in_fragmented = true;
        record_offset = last_fragment_offset_;
        assembled.assign(fragment.data(), fragment.size());
        break;
      case static_cast<int>(RecordType::kMiddle):
        if (!in_fragmented) {
          status_ = Status::Corruption("middle fragment without first");
          return false;
        }
        assembled.append(fragment.data(), fragment.size());
        break;
      case static_cast<int>(RecordType::kLast):
        if (!in_fragmented) {
          status_ = Status::Corruption("last fragment without first");
          return false;
        }
        assembled.append(fragment.data(), fragment.size());
        *record = std::move(assembled);
        last_record_offset_ = record_offset;
        last_record_end_ = bytes_consumed_ - buffer_.size();
        return true;
      case kEof:
        if (in_fragmented) {
          // Torn multi-fragment record at EOF: drop it silently,
          // consistent with torn-single-record handling.
          record->clear();
        }
        return false;
      case kBadRecord:
        status_ = Status::Corruption("checksum mismatch or malformed record");
        return false;
      default:
        status_ = Status::Corruption("unknown record type");
        return false;
    }
  }
}

Status ReadRecordAt(const RandomAccessFile& file, uint64_t offset,
                    uint64_t limit, std::string* record) {
  record->clear();
  if (limit < offset + kHeaderSize) {
    return Status::Corruption("log record extent too short");
  }
  std::string buf;
  MEDVAULT_RETURN_IF_ERROR(file.Read(offset, limit - offset, &buf));
  size_t pos = 0;
  bool first = true;
  while (true) {
    // A block trailer too small for a header precedes the next fragment.
    const size_t block_left = kBlockSize - (offset + pos) % kBlockSize;
    if (block_left < static_cast<size_t>(kHeaderSize)) pos += block_left;
    if (pos + kHeaderSize > buf.size()) {
      return Status::Corruption("log record runs past its extent");
    }
    const char* header = buf.data() + pos;
    const uint32_t length = FragmentLength(header);
    const auto type = static_cast<RecordType>(header[6]);
    if (pos + kHeaderSize + length > buf.size()) {
      return Status::Corruption("log record runs past its extent");
    }
    if (!FragmentChecksumOk(header, length)) {
      return Status::Corruption("checksum mismatch");
    }
    const bool starts = type == RecordType::kFull || type == RecordType::kFirst;
    const bool ends = type == RecordType::kFull || type == RecordType::kLast;
    if (starts != first ||
        (!starts && !ends && type != RecordType::kMiddle)) {
      return Status::Corruption("malformed fragment sequence");
    }
    record->append(header + kHeaderSize, length);
    pos += kHeaderSize + length;
    if (ends) return Status::OK();
    first = false;
  }
}

}  // namespace medvault::storage::log
