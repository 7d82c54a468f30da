#ifndef MEDVAULT_STORAGE_SEGMENT_H_
#define MEDVAULT_STORAGE_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/env.h"

namespace medvault::storage {

/// Location of one entry inside a SegmentStore.
struct EntryHandle {
  uint64_t segment_id = 0;
  uint64_t offset = 0;  ///< byte offset of the entry frame in the segment
  uint32_t length = 0;  ///< payload length

  std::string Encode() const;
  static Result<EntryHandle> Decode(const Slice& data);

  bool operator==(const EntryHandle& other) const = default;
};

/// Name of segment `segment_id` inside its store's directory
/// (`seg-00000001`).
std::string SegmentBaseName(uint64_t segment_id);

/// The one parser of segment file names: true, with `*id` set, iff
/// `name` is exactly SegmentBaseName(*id). Anything else in a segment
/// directory (temp files, `seg-junk`) is not a segment.
bool ParseSegmentBaseName(const std::string& name, uint64_t* id);

/// Walks the  crc32c(4) | length(4) | payload  frames of one segment,
/// oldest first — the one parser of that framing outside Append/Read.
/// A file is read through a caller-owned window of at most
/// kScanWindowBytes; a frame longer than the window is checked across
/// reads with crc32c::Extend, so the window never grows.
class SegmentFrameWalker {
 public:
  struct Frame {
    uint64_t offset = 0;  ///< of the frame header
    uint64_t end = 0;     ///< just past the payload
    uint32_t length = 0;  ///< payload length
    bool crc_ok = true;   ///< the payload matches the header's CRC
    /// The payload while it sits in the window (until the next Next()),
    /// else empty. Always set for a whole-image walk; never for a frame
    /// longer than the window or a walk that skips checksums.
    Slice payload;
  };

  /// What follows the last whole frame.
  enum class Tail {
    kNone,           ///< nothing: the file ends on a frame boundary
    kPartialHeader,  ///< fewer bytes than a frame header
    kTornFrame,      ///< a header whose frame runs past the end
  };

  /// Walks the in-memory segment image `data` as one window.
  SegmentFrameWalker(const Slice& data, bool check_crc);

  /// Walks the first `size` bytes of `file` through `*window`. Without
  /// `check_crc` only headers are read: frames come back unverified.
  SegmentFrameWalker(const RandomAccessFile* file, uint64_t size,
                     bool check_crc, std::string* window);

  /// Steps to the next whole frame. False past the last one, or on a
  /// read error (see status()).
  bool Next(Frame* frame);

  /// Offset just past the last whole frame returned.
  uint64_t end() const { return pos_; }
  /// Valid once Next() has returned false with an OK status().
  Tail tail() const { return tail_; }
  const Status& status() const { return status_; }

 private:
  /// Makes [offset, offset + n) readable in the window; n must fit it.
  bool Load(uint64_t offset, uint64_t n);
  /// CRC of the `n` bytes at `offset`, read a window at a time.
  bool StreamCrc(uint64_t offset, uint64_t n, uint32_t* crc);

  const RandomAccessFile* file_ = nullptr;  ///< null for a whole image
  std::string* window_ = nullptr;
  uint64_t size_ = 0;
  uint64_t capacity_ = 0;  ///< bytes the window can hold
  bool check_crc_ = true;
  Slice buf_;              ///< window contents: bytes from buf_start_
  uint64_t buf_start_ = 0;
  uint64_t pos_ = 0;
  Tail tail_ = Tail::kNone;
  Status status_;
};

/// Append-only segment store: MedVault's software WORM media.
///
/// Entries are framed as  crc32c(4) | length(4) | payload  and appended
/// to numbered segment files (SegmentBaseName). When a segment reaches the
/// size limit it is *sealed*: its content hash is recorded in the
/// manifest and the store never opens it for writing again. There is no
/// update or delete API at this layer — by construction. (A malicious
/// insider bypasses this class via Env::UnsafeOverwrite; detection then
/// falls to the frame CRC and the cryptographic layers above.)
class SegmentStore {
 public:
  struct Options {
    uint64_t max_segment_bytes = 4 * 1024 * 1024;
  };

  SegmentStore(Env* env, std::string dir, Options options);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Creates the directory / scans existing segments. Must be called
  /// before any other method.
  Status Open();

  /// Appends one entry; returns its handle.
  Result<EntryHandle> Append(const Slice& payload);

  /// Reads an entry, verifying its frame CRC (kCorruption on mismatch).
  Result<std::string> Read(const EntryHandle& handle) const;

  /// Seals the active segment regardless of size (e.g. at checkpoint).
  /// On failure nothing has changed and the call may simply be retried.
  Status SealActive();

  /// Durability barrier on the active segment (no-op if it has none).
  Status SyncActive();

  /// The active segment file for batched sync waves; null when no
  /// segment is open (nothing to sync).
  WritableFile* ActiveSyncTarget() { return active_file_.get(); }

  /// True if `handle` points at bytes structurally present in the store
  /// (segment exists and the frame lies within its recovered size).
  /// Recovery uses this to spot catalog entries whose segment frame was
  /// lost to a torn tail; it does not verify the frame CRC.
  bool Contains(const EntryHandle& handle) const;

  /// Iterates every entry in segment order. `fn` returns false to stop.
  /// Corrupt frames surface as kCorruption.
  Status ForEachEntry(
      const std::function<bool(const EntryHandle&, const Slice&)>& fn) const;

  /// Ids of all segments, ascending; the last may be active (unsealed).
  std::vector<uint64_t> SegmentIds() const;
  bool IsSealed(uint64_t segment_id) const;

  /// Physically removes a sealed segment's file. Only the retention
  /// manager calls this, after crypto-shredding; the WORM discipline for
  /// *content* is preserved because shredded ciphertext is unreadable
  /// either way. Returns kWormViolation for the active segment.
  Status DropSegment(uint64_t segment_id);

  uint64_t TotalBytes() const;

  const std::string& dir() const { return dir_; }
  std::string SegmentFileName(uint64_t segment_id) const;

 private:
  Status RollSegment();  // seals active, starts the next

  Env* env_;
  std::string dir_;
  Options options_;

  struct SegmentInfo {
    uint64_t bytes = 0;
    bool sealed = false;
  };
  std::map<uint64_t, SegmentInfo> segments_;
  uint64_t active_id_ = 0;
  std::unique_ptr<WritableFile> active_file_;
  uint64_t active_offset_ = 0;
  bool open_ = false;
};

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_SEGMENT_H_
