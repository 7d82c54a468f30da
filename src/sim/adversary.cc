#include "sim/adversary.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace medvault::sim {

Result<int> InsiderAdversary::TamperRandomBytes(
    const std::vector<std::string>& files, int count) {
  // Collect tamperable files with their sizes.
  std::vector<std::pair<std::string, uint64_t>> targets;
  uint64_t total = 0;
  for (const std::string& file : files) {
    uint64_t size = 0;
    if (!env_->GetFileSize(file, &size).ok() || size == 0) continue;
    targets.emplace_back(file, size);
    total += size;
  }
  if (targets.empty() || total == 0) {
    return Status::FailedPrecondition("nothing to tamper with");
  }

  int applied = 0;
  for (int i = 0; i < count; i++) {
    // Pick a byte position uniformly over the combined size.
    uint64_t pos = rng_.Uniform(total);
    size_t file_idx = 0;
    while (pos >= targets[file_idx].second) {
      pos -= targets[file_idx].second;
      file_idx++;
    }
    const std::string& file = targets[file_idx].first;

    std::unique_ptr<storage::RandomAccessFile> reader;
    MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(file, &reader));
    std::string byte;
    MEDVAULT_RETURN_IF_ERROR(reader->Read(pos, 1, &byte));
    if (byte.empty()) continue;
    char flipped = static_cast<char>(byte[0] ^ (1 + rng_.Uniform(255)));
    MEDVAULT_RETURN_IF_ERROR(
        env_->UnsafeOverwrite(file, pos, Slice(&flipped, 1)));
    applied++;
  }
  return applied;
}

Status InsiderAdversary::Truncate(const std::string& file, uint64_t bytes) {
  uint64_t size = 0;
  MEDVAULT_RETURN_IF_ERROR(env_->GetFileSize(file, &size));
  if (bytes > size) bytes = size;
  return env_->UnsafeTruncate(file, size - bytes);
}

Status InsiderAdversary::SmartTamperSegmentEntry(const std::string& file,
                                                 uint64_t frame_offset,
                                                 uint64_t payload_byte,
                                                 char new_value) {
  // Frame layout (storage::SegmentStore): crc32c(4) | length(4) | payload.
  std::unique_ptr<storage::RandomAccessFile> reader;
  MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(file, &reader));
  std::string header;
  MEDVAULT_RETURN_IF_ERROR(reader->Read(frame_offset, 8, &header));
  if (header.size() != 8) {
    return Status::InvalidArgument("no frame at offset");
  }
  uint32_t length = DecodeFixed32(header.data() + 4);
  if (payload_byte >= length) {
    return Status::InvalidArgument("payload byte outside entry");
  }
  std::string payload;
  MEDVAULT_RETURN_IF_ERROR(
      reader->Read(frame_offset + 8, length, &payload));
  if (payload.size() != length) {
    return Status::InvalidArgument("entry truncated");
  }
  payload[payload_byte] = new_value;
  char new_crc[4];
  EncodeFixed32(new_crc, crc32c::Mask(crc32c::Value(payload)));
  MEDVAULT_RETURN_IF_ERROR(
      env_->UnsafeOverwrite(file, frame_offset, Slice(new_crc, 4)));
  return env_->UnsafeOverwrite(file, frame_offset + 8 + payload_byte,
                               Slice(&payload[payload_byte], 1));
}

Result<bool> InsiderAdversary::ScanForKeyword(
    const std::vector<std::string>& files, const std::string& keyword) {
  for (const std::string& file : files) {
    std::string contents;
    Status s = storage::ReadFileToString(env_, file, &contents);
    if (!s.ok()) continue;
    if (contents.find(keyword) != std::string::npos) return true;
  }
  return false;
}

}  // namespace medvault::sim
