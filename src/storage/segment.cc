#include "storage/segment.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "common/coding.h"
#include "common/crc32c.h"

namespace medvault::storage {

namespace {
constexpr size_t kFrameHeaderSize = 8;  // crc32c(4) + length(4)
}  // namespace

std::string EntryHandle::Encode() const {
  std::string out;
  PutVarint64(&out, segment_id);
  PutVarint64(&out, offset);
  PutVarint32(&out, length);
  return out;
}

Result<EntryHandle> EntryHandle::Decode(const Slice& data) {
  Slice in = data;
  EntryHandle h;
  if (!GetVarint64(&in, &h.segment_id) || !GetVarint64(&in, &h.offset) ||
      !GetVarint32(&in, &h.length) || !in.empty()) {
    return Status::Corruption("malformed entry handle");
  }
  return h;
}

std::string SegmentBaseName(uint64_t segment_id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "seg-%08" PRIu64, segment_id);
  return buf;
}

bool ParseSegmentBaseName(const std::string& name, uint64_t* id) {
  constexpr std::string_view kPrefix = "seg-";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  // The round trip rejects trailing bytes, signs and missing padding.
  return std::from_chars(name.data() + kPrefix.size(),
                         name.data() + name.size(), *id)
                 .ec == std::errc() &&
         name == SegmentBaseName(*id);
}

SegmentFrameWalker::SegmentFrameWalker(const Slice& data, bool check_crc)
    : size_(data.size()),
      capacity_(data.size()),
      check_crc_(check_crc),
      buf_(data) {}

SegmentFrameWalker::SegmentFrameWalker(const RandomAccessFile* file,
                                       uint64_t size, bool check_crc,
                                       std::string* window)
    : file_(file),
      window_(window),
      size_(size),
      capacity_(kScanWindowBytes),
      check_crc_(check_crc) {}

bool SegmentFrameWalker::Load(uint64_t offset, uint64_t n) {
  if (offset >= buf_start_ && offset + n <= buf_start_ + buf_.size()) {
    return true;
  }
  // Only a file walk gets here: a whole image is one window.
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(capacity_, size_ - offset));
  status_ = file_->Read(offset, want, window_);
  if (status_.ok() && window_->size() < n) {
    status_ = Status::Corruption("segment shorter than its recorded size");
  }
  if (!status_.ok()) return false;
  buf_ = Slice(*window_);
  buf_start_ = offset;
  return true;
}

bool SegmentFrameWalker::StreamCrc(uint64_t offset, uint64_t n,
                                   uint32_t* crc) {
  *crc = 0;
  while (n > 0) {
    const uint64_t chunk = std::min<uint64_t>(n, capacity_);
    if (!Load(offset, chunk)) return false;
    *crc = crc32c::Extend(*crc, buf_.data() + (offset - buf_start_), chunk);
    offset += chunk;
    n -= chunk;
  }
  return true;
}

bool SegmentFrameWalker::Next(Frame* frame) {
  if (!status_.ok() || tail_ != Tail::kNone) return false;
  if (pos_ + kFrameHeaderSize > size_) {
    if (pos_ < size_) tail_ = Tail::kPartialHeader;
    return false;
  }
  if (!Load(pos_, kFrameHeaderSize)) return false;
  const char* header = buf_.data() + (pos_ - buf_start_);
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
  const uint32_t length = DecodeFixed32(header + 4);
  if (pos_ + kFrameHeaderSize + length > size_) {
    tail_ = Tail::kTornFrame;
    return false;
  }
  frame->offset = pos_;
  frame->end = pos_ + kFrameHeaderSize + length;
  frame->length = length;
  frame->crc_ok = true;
  frame->payload = Slice();
  if (check_crc_) {
    const uint64_t payload_at = pos_ + kFrameHeaderSize;
    uint32_t crc = 0;
    if (kFrameHeaderSize + length <= capacity_) {
      if (!Load(pos_, kFrameHeaderSize + length)) return false;
      frame->payload =
          Slice(buf_.data() + (payload_at - buf_start_), length);
      crc = crc32c::Value(frame->payload);
    } else if (!StreamCrc(payload_at, length, &crc)) {
      return false;
    }
    frame->crc_ok = crc == expected_crc;
  }
  pos_ = frame->end;
  return true;
}

SegmentStore::SegmentStore(Env* env, std::string dir, Options options)
    : env_(env), dir_(std::move(dir)), options_(options) {}

std::string SegmentStore::SegmentFileName(uint64_t segment_id) const {
  return dir_ + "/" + SegmentBaseName(segment_id);
}

Status SegmentStore::Open() {
  MEDVAULT_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));
  std::vector<std::string> children;
  MEDVAULT_RETURN_IF_ERROR(env_->GetChildren(dir_, &children));

  uint64_t max_id = 0;
  for (const std::string& name : children) {
    uint64_t id = 0;
    if (ParseSegmentBaseName(name, &id)) {
      uint64_t size = 0;
      MEDVAULT_RETURN_IF_ERROR(env_->GetFileSize(dir_ + "/" + name, &size));
      segments_[id] = SegmentInfo{size, true};  // re-opened => sealed
      if (id > max_id) max_id = id;
    }
  }

  // The highest-numbered segment was the active one at shutdown; an
  // unclean shutdown can leave a torn frame at its tail. Cut the tail
  // back to the last whole frame (complete frames with bad CRCs are
  // tamper evidence and are left in place for the read path to catch).
  // Lower-numbered segments were sealed with a durability barrier and
  // cannot be torn.
  if (max_id > 0) {
    const std::string name = SegmentFileName(max_id);
    std::unique_ptr<RandomAccessFile> file;
    MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(name, &file));
    std::string window;
    SegmentFrameWalker walker(file.get(), segments_[max_id].bytes,
                              /*check_crc=*/false, &window);
    SegmentFrameWalker::Frame frame;
    while (walker.Next(&frame)) {
    }
    MEDVAULT_RETURN_IF_ERROR(walker.status());
    if (walker.end() < segments_[max_id].bytes) {
      MEDVAULT_RETURN_IF_ERROR(env_->Truncate(name, walker.end()));
      segments_[max_id].bytes = walker.end();
    }
  }

  // Start a fresh active segment after the highest existing one, unless
  // that one holds no frame: then it stays the active one, so opens
  // without writes leave no empty file behind.
  active_id_ = max_id > 0 && segments_[max_id].bytes == 0 ? max_id
                                                          : max_id + 1;
  segments_[active_id_] = SegmentInfo{0, false};
  MEDVAULT_RETURN_IF_ERROR(
      env_->NewWritableFile(SegmentFileName(active_id_), &active_file_));
  active_offset_ = 0;
  open_ = true;
  return Status::OK();
}

Status SegmentStore::RollSegment() {
  MEDVAULT_RETURN_IF_ERROR(SealActive());
  return Status::OK();
}

Status SegmentStore::SealActive() {
  if (!open_) return Status::FailedPrecondition("segment store not open");
  // Create the successor file before touching any state: if creation
  // fails (disk full, injected fault) the store is exactly as it was
  // and the seal can be retried. The old order flipped `sealed` and
  // bumped `active_id_` first, leaving the store wedged — no active
  // file, ids desynced — after a failed creation.
  const uint64_t next_id = active_id_ + 1;
  std::unique_ptr<WritableFile> next_file;
  MEDVAULT_RETURN_IF_ERROR(
      env_->NewWritableFile(SegmentFileName(next_id), &next_file));
  if (active_file_) {
    Status s = active_file_->Sync();
    if (s.ok()) s = active_file_->Close();
    if (!s.ok()) {
      (void)next_file->Close();
      (void)env_->RemoveFile(SegmentFileName(next_id));
      return s;
    }
    active_file_.reset();
  }
  segments_[active_id_].sealed = true;
  active_id_ = next_id;
  segments_[active_id_] = SegmentInfo{0, false};
  active_file_ = std::move(next_file);
  active_offset_ = 0;
  return Status::OK();
}

Status SegmentStore::SyncActive() {
  if (!open_) return Status::FailedPrecondition("segment store not open");
  if (active_file_) return active_file_->Sync();
  return Status::OK();
}

bool SegmentStore::Contains(const EntryHandle& handle) const {
  auto it = segments_.find(handle.segment_id);
  if (it == segments_.end()) return false;
  return handle.offset + kFrameHeaderSize + handle.length <=
         it->second.bytes;
}

Result<EntryHandle> SegmentStore::Append(const Slice& payload) {
  if (!open_) return Status::FailedPrecondition("segment store not open");
  if (active_offset_ + kFrameHeaderSize + payload.size() >
          options_.max_segment_bytes &&
      active_offset_ > 0) {
    MEDVAULT_RETURN_IF_ERROR(RollSegment());
  }

  char header[kFrameHeaderSize];
  EncodeFixed32(header, crc32c::Mask(crc32c::Value(payload)));
  EncodeFixed32(header + 4, static_cast<uint32_t>(payload.size()));

  EntryHandle handle;
  handle.segment_id = active_id_;
  handle.offset = active_offset_;
  handle.length = static_cast<uint32_t>(payload.size());

  // One Append for header + payload: a failed write must not leave a
  // partial frame behind, or active_offset_ desyncs from the file and
  // every later handle in this segment points at the wrong bytes.
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.append(header, sizeof(header));
  frame.append(payload.data(), payload.size());
  MEDVAULT_RETURN_IF_ERROR(active_file_->Append(Slice(frame)));
  active_offset_ += kFrameHeaderSize + payload.size();
  segments_[active_id_].bytes = active_offset_;
  return handle;
}

Result<std::string> SegmentStore::Read(const EntryHandle& handle) const {
  if (!open_) return Status::FailedPrecondition("segment store not open");
  auto it = segments_.find(handle.segment_id);
  if (it == segments_.end()) {
    return Status::NotFound("no such segment");
  }
  std::unique_ptr<RandomAccessFile> file;
  MEDVAULT_RETURN_IF_ERROR(
      env_->NewRandomAccessFile(SegmentFileName(handle.segment_id), &file));
  std::string frame;
  MEDVAULT_RETURN_IF_ERROR(
      file->Read(handle.offset, kFrameHeaderSize + handle.length, &frame));
  if (frame.size() != kFrameHeaderSize + handle.length) {
    return Status::Corruption("segment entry truncated");
  }
  uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(frame.data()));
  uint32_t stored_length = DecodeFixed32(frame.data() + 4);
  if (stored_length != handle.length) {
    return Status::Corruption("segment entry length mismatch");
  }
  Slice payload(frame.data() + kFrameHeaderSize, handle.length);
  if (crc32c::Value(payload) != expected_crc) {
    return Status::Corruption("segment entry checksum mismatch");
  }
  return payload.ToString();
}

Status SegmentStore::ForEachEntry(
    const std::function<bool(const EntryHandle&, const Slice&)>& fn) const {
  std::string window;
  for (const auto& [id, info] : segments_) {
    if (info.bytes == 0 && !env_->FileExists(SegmentFileName(id))) continue;
    uint64_t size = 0;
    MEDVAULT_RETURN_IF_ERROR(env_->GetFileSize(SegmentFileName(id), &size));
    std::unique_ptr<RandomAccessFile> file;
    MEDVAULT_RETURN_IF_ERROR(
        env_->NewRandomAccessFile(SegmentFileName(id), &file));
    SegmentFrameWalker walker(file.get(), size, /*check_crc=*/true, &window);
    SegmentFrameWalker::Frame frame;
    while (walker.Next(&frame)) {
      if (!frame.crc_ok) {
        return Status::Corruption("segment entry checksum mismatch");
      }
      const EntryHandle handle{id, frame.offset, frame.length};
      if (frame.payload.size() == frame.length) {
        if (!fn(handle, frame.payload)) return Status::OK();
        continue;
      }
      // Longer than the window: the caller wants it whole.
      MEDVAULT_ASSIGN_OR_RETURN(std::string payload, Read(handle));
      if (!fn(handle, Slice(payload))) return Status::OK();
    }
    MEDVAULT_RETURN_IF_ERROR(walker.status());
    if (walker.tail() == SegmentFrameWalker::Tail::kTornFrame) {
      return Status::Corruption("segment ends mid-entry");
    }
    if (walker.tail() == SegmentFrameWalker::Tail::kPartialHeader) {
      return Status::Corruption("trailing garbage in segment");
    }
  }
  return Status::OK();
}

std::vector<uint64_t> SegmentStore::SegmentIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(segments_.size());
  for (const auto& [id, info] : segments_) ids.push_back(id);
  return ids;
}

bool SegmentStore::IsSealed(uint64_t segment_id) const {
  auto it = segments_.find(segment_id);
  return it != segments_.end() && it->second.sealed;
}

Status SegmentStore::DropSegment(uint64_t segment_id) {
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (!it->second.sealed) {
    return Status::WormViolation("cannot drop the active segment");
  }
  MEDVAULT_RETURN_IF_ERROR(env_->RemoveFile(SegmentFileName(segment_id)));
  segments_.erase(it);
  return Status::OK();
}

uint64_t SegmentStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [id, info] : segments_) total += info.bytes;
  return total;
}

}  // namespace medvault::storage
