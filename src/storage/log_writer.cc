#include "storage/log_writer.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace medvault::storage::log {

Writer::Writer(std::unique_ptr<WritableFile> dest, uint64_t initial_offset)
    : dest_(std::move(dest)),
      block_offset_(static_cast<int>(initial_offset % kBlockSize)),
      file_offset_(initial_offset) {}

size_t Writer::FrameRecord(const Slice& payload, std::string* out,
                           int* block_offset) {
  const char* ptr = payload.data();
  size_t left = payload.size();
  size_t start = 0;

  bool begin = true;
  do {
    const int leftover = kBlockSize - *block_offset;
    if (leftover < kHeaderSize) {
      if (leftover > 0) {
        // Fill trailer with zeros.
        out->append(static_cast<size_t>(leftover), '\0');
      }
      *block_offset = 0;
    }

    const size_t avail = kBlockSize - *block_offset - kHeaderSize;
    const size_t fragment_length = (left < avail) ? left : avail;

    RecordType type;
    const bool end = (left == fragment_length);
    if (begin && end) {
      type = RecordType::kFull;
    } else if (begin) {
      type = RecordType::kFirst;
    } else if (end) {
      type = RecordType::kLast;
    } else {
      type = RecordType::kMiddle;
    }

    if (begin) start = out->size();
    char header[kHeaderSize];
    header[4] = static_cast<char>(fragment_length & 0xff);
    header[5] = static_cast<char>(fragment_length >> 8);
    header[6] = static_cast<char>(type);

    // CRC over type byte + payload.
    uint32_t crc = crc32c::Value(&header[6], 1);
    crc = crc32c::Extend(crc, ptr, fragment_length);
    EncodeFixed32(header, crc32c::Mask(crc));

    out->append(header, kHeaderSize);
    out->append(ptr, fragment_length);
    *block_offset += kHeaderSize + static_cast<int>(fragment_length);

    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (left > 0);
  return start;
}

Status Writer::AddRecord(const Slice& payload, uint64_t* offset) {
  return AddRecords(&payload, 1, offset);
}

Status Writer::AddRecords(const Slice* payloads, size_t n,
                          uint64_t* offsets) {
  std::string buf;
  // Typical case: everything fits in the current block, so framing adds
  // exactly one header per record.
  size_t expect = 0;
  for (size_t i = 0; i < n; ++i) expect += payloads[i].size() + kHeaderSize;
  buf.reserve(expect);

  int block_offset = block_offset_;
  for (size_t i = 0; i < n; ++i) {
    const size_t start = FrameRecord(payloads[i], &buf, &block_offset);
    if (offsets != nullptr) offsets[i] = file_offset_ + start;
  }

  // Single buffered write: offsets only advance if the append succeeds,
  // matching the old per-fragment failure behavior at record granularity.
  MEDVAULT_RETURN_IF_ERROR(dest_->Append(Slice(buf)));
  block_offset_ = block_offset;
  file_offset_ += buf.size();
  return Status::OK();
}

}  // namespace medvault::storage::log
