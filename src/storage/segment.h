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
#include "storage/log_writer.h"

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

  /// SHA-256 over a sealed segment's bytes (for migration verification).
  Result<std::string> SegmentHash(uint64_t segment_id) const;

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
