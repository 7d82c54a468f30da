#include "core/scrub.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32c.h"
#include "storage/log_format.h"
#include "storage/segment.h"

namespace medvault::core {

namespace {

bool AllZero(const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void AddRange(FileScrubResult* out, uint64_t offset, uint64_t length) {
  out->verdict = ScrubVerdict::kCorrupt;
  // Coalesce with the previous range when contiguous, so a multi-frame
  // blast radius reads as one range.
  if (!out->corrupt_ranges.empty()) {
    CorruptRange& back = out->corrupt_ranges.back();
    if (back.offset + back.length == offset) {
      back.length += length;
      return;
    }
  }
  out->corrupt_ranges.push_back(CorruptRange{offset, length});
}

void AppendDetail(FileScrubResult* out, const std::string& note) {
  if (!out->detail.empty()) out->detail += "; ";
  out->detail += note;
}

}  // namespace

const char* ScrubVerdictName(ScrubVerdict v) {
  switch (v) {
    case ScrubVerdict::kClean:
      return "clean";
    case ScrubVerdict::kCorrupt:
      return "corrupt";
    case ScrubVerdict::kMissing:
      return "missing";
    case ScrubVerdict::kOrphan:
      return "orphan";
  }
  return "unknown";
}

std::vector<std::string> ScrubReport::DamagedFiles() const {
  std::vector<std::string> out;
  for (const FileScrubResult& f : files) {
    if (f.verdict == ScrubVerdict::kCorrupt ||
        f.verdict == ScrubVerdict::kMissing) {
      out.push_back(f.path);
    }
  }
  return out;
}

std::vector<std::string> ScrubReport::OrphanFiles() const {
  std::vector<std::string> out;
  for (const FileScrubResult& f : files) {
    if (f.verdict == ScrubVerdict::kOrphan) out.push_back(f.path);
  }
  return out;
}

const FileScrubResult* ScrubReport::Find(const std::string& path) const {
  for (const FileScrubResult& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

std::string ScrubReport::Summary() const {
  char head[256];
  snprintf(head, sizeof(head),
           "scrub %s: %" PRIu64 " files, %" PRIu64 " bytes, %" PRIu64
           " damaged, %" PRIu64 " orphaned",
           dir.c_str(), files_scanned, bytes_scanned, corrupt_files,
           orphan_files);
  std::string out = head;
  for (const FileScrubResult& f : files) {
    if (f.verdict == ScrubVerdict::kClean) continue;
    out += "\n  ";
    out += f.path;
    out += ": ";
    out += ScrubVerdictName(f.verdict);
    for (const CorruptRange& r : f.corrupt_ranges) {
      char buf[64];
      snprintf(buf, sizeof(buf), " [%" PRIu64 ",+%" PRIu64 ")", r.offset,
               r.length);
      out += buf;
    }
    if (!f.detail.empty()) {
      out += " (" + f.detail + ")";
    }
  }
  if (!deep_status.ok()) {
    out += "\n  deep verification: " + deep_status.ToString();
  }
  return out;
}

namespace {

// Frame-checks a segment walk; `size` is the image's length.
void ScanSegment(storage::SegmentFrameWalker* walker, uint64_t size,
                 bool is_active, FileScrubResult* out) {
  storage::SegmentFrameWalker::Frame frame;
  while (walker->Next(&frame)) {
    if (!frame.crc_ok) {
      // The length field still framed a plausible payload, so the walk
      // resyncs at the next frame boundary to localize the damage.
      AddRange(out, frame.offset, frame.end - frame.offset);
      AppendDetail(out, "frame crc mismatch");
    }
  }
  if (!walker->status().ok()) return;
  const uint64_t end = walker->end();
  switch (walker->tail()) {
    case storage::SegmentFrameWalker::Tail::kNone:
      break;
    case storage::SegmentFrameWalker::Tail::kTornFrame:
      // The frame claims bytes past EOF. In the active (highest-id)
      // segment that is the torn tail of a crashed append, which crash
      // recovery truncates; in a sealed segment nothing may be torn, so
      // it is damage (e.g. a bit flip inside this length field).
      if (is_active) {
        AppendDetail(out, "torn tail frame");
      } else {
        AddRange(out, end, size - end);
        AppendDetail(out, "frame extends past EOF in sealed segment");
      }
      break;
    case storage::SegmentFrameWalker::Tail::kPartialHeader:
      if (is_active) {
        AppendDetail(out, "torn tail frame header");
      } else {
        AddRange(out, end, size - end);
        AppendDetail(out, "trailing partial frame in sealed segment");
      }
      break;
  }
}

// Block-scans the `avail` bytes of the log block at file offset `block`;
// `last_block` marks the block holding EOF.
void ScanLogBlock(const char* data, uint64_t block, uint64_t avail,
                  bool last_block, FileScrubResult* out) {
  using storage::log::kHeaderSize;
  using storage::log::kMaxRecordType;
  uint64_t p = 0;
  while (p + kHeaderSize <= avail) {
    const char* header = data + p;
    const uint32_t stored = DecodeFixed32(header);
    const uint32_t length = static_cast<uint8_t>(header[4]) |
                            (static_cast<uint8_t>(header[5]) << 8);
    const int type = static_cast<uint8_t>(header[6]);
    if (type == 0 && length == 0) {
      // Zero trailer: the writer pads the rest of the block with
      // zeros. Anything non-zero in the padding is rot the reader
      // would silently skip — flag it so repair restores the file.
      if (!AllZero(header, avail - p)) {
        AddRange(out, block + p, avail - p);
        AppendDetail(out, "non-zero bytes in block trailer");
      }
      return;  // rest of block is padding
    }
    if (p + kHeaderSize + length > avail) {
      // Record claims bytes past the block end. At EOF that is the
      // torn tail of a crashed append (recovery truncates it);
      // anywhere else it is damage.
      if (last_block) {
        AppendDetail(out, "torn tail record");
        return;
      }
      AddRange(out, block + p, avail - p);
      AppendDetail(out, "record extends past block end");
      return;  // resync at the next block boundary
    }
    const uint32_t actual =
        crc32c::Mask(crc32c::Value(header + 6, 1 + length));
    if (actual != stored || type > kMaxRecordType) {
      AddRange(out, block + p, kHeaderSize + length);
      AppendDetail(out, actual != stored ? "record crc mismatch"
                                         : "invalid record type");
      // Length framed a plausible record: resync after it.
    }
    p += kHeaderSize + length;
  }
  // Fewer than kHeaderSize bytes left in the block: the writer
  // zero-pads full blocks; at EOF a partial header is a torn tail.
  if (p < avail && !AllZero(data + p, avail - p)) {
    if (last_block) {
      AppendDetail(out, "torn tail header");
    } else {
      AddRange(out, block + p, avail - p);
      AppendDetail(out, "non-zero bytes in block padding");
    }
  }
}

// Block-scans the `n` bytes at file offset `at` (a whole number of
// blocks unless they end the file) of a log of `size` bytes.
void ScanLogBlocks(const char* data, uint64_t at, uint64_t n, uint64_t size,
                   FileScrubResult* out) {
  using storage::log::kBlockSize;
  for (uint64_t off = 0; off < n; off += kBlockSize) {
    const uint64_t avail = std::min<uint64_t>(kBlockSize, n - off);
    ScanLogBlock(data + off, at + off, avail, at + off + avail == size, out);
  }
}

static_assert(storage::kScanWindowBytes % storage::log::kBlockSize == 0,
              "a log scan window must hold whole blocks");

// Scrubs the file at `path` through `*window` into `out` (verdict,
// ranges, detail, bytes). A non-OK status means it could not be read.
Status ScanFile(storage::Env* env, const std::string& path, bool is_segment,
                bool is_active, std::string* window, FileScrubResult* out) {
  uint64_t size = 0;
  MEDVAULT_RETURN_IF_ERROR(env->GetFileSize(path, &size));
  std::unique_ptr<storage::RandomAccessFile> file;
  MEDVAULT_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  out->bytes = size;
  if (is_segment) {
    storage::SegmentFrameWalker walker(file.get(), size, /*check_crc=*/true,
                                       window);
    ScanSegment(&walker, size, is_active, out);
    return walker.status();
  }
  for (uint64_t at = 0; at < size; at += storage::kScanWindowBytes) {
    const uint64_t n = std::min<uint64_t>(storage::kScanWindowBytes, size - at);
    MEDVAULT_RETURN_IF_ERROR(file->Read(at, n, window));
    if (window->size() != n) {
      return Status::Corruption("log shorter than its recorded size");
    }
    ScanLogBlocks(window->data(), at, n, size, out);
  }
  return Status::OK();
}

}  // namespace

void Scrubber::ScrubSegmentData(const Slice& data, bool is_active,
                                FileScrubResult* out) {
  storage::SegmentFrameWalker walker(data, /*check_crc=*/true);
  ScanSegment(&walker, data.size(), is_active, out);
}

void Scrubber::ScrubLogData(const Slice& data, FileScrubResult* out) {
  ScanLogBlocks(data.data(), 0, data.size(), data.size(), out);
}

const std::vector<std::string>& Scrubber::ExpectedArtifacts() {
  static const std::vector<std::string> kExpected = {
      "audit.log",      "catalog.log", "index.log",
      "provenance.log", "keys.db",     "state.log",
  };
  return kExpected;
}

Result<std::vector<std::string>> Scrubber::ArtifactFiles(
    storage::Env* env, const std::string& dir) {
  std::vector<std::string> out;
  std::vector<std::string> children;
  Status s = env->GetChildren(dir, &children);
  if (s.IsNotFound()) return out;
  MEDVAULT_RETURN_IF_ERROR(s);
  const std::vector<std::string>& artifacts = ExpectedArtifacts();
  for (const std::string& name : children) {
    if (std::find(artifacts.begin(), artifacts.end(), name) !=
        artifacts.end()) {
      out.push_back(name);
    }
  }
  std::vector<std::string> segs;
  s = env->GetChildren(dir + "/segments", &segs);
  if (s.ok()) {
    for (const std::string& name : segs) {
      uint64_t id = 0;
      if (storage::ParseSegmentBaseName(name, &id)) {
        out.push_back("segments/" + name);
      }
    }
  } else if (!s.IsNotFound()) {
    return s;
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<ScrubReport> Scrubber::ScrubVaultDir(storage::Env* env,
                                            const std::string& dir,
                                            Timestamp now) {
  ScrubReport report;
  report.dir = dir;
  report.scrubbed_at = now;

  std::vector<std::string> children;
  MEDVAULT_RETURN_IF_ERROR(env->GetChildren(dir, &children));

  // One window serves every file of the scan.
  std::string window;
  auto scan_file = [&](const std::string& rel, bool is_segment,
                       bool is_active) {
    FileScrubResult r;
    r.path = rel;
    Status s =
        ScanFile(env, dir + "/" + rel, is_segment, is_active, &window, &r);
    if (!s.ok()) {
      r = FileScrubResult{};
      r.path = rel;
      r.verdict =
          s.IsNotFound() ? ScrubVerdict::kMissing : ScrubVerdict::kCorrupt;
      r.detail = "unreadable: " + s.ToString();
      report.files.push_back(std::move(r));
      return;
    }
    report.files_scanned++;
    report.bytes_scanned += r.bytes;
    report.files.push_back(std::move(r));
  };

  // The artifacts are scanned; anything else but the derived
  // signer.tree is an orphan.
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> artifacts,
                            ArtifactFiles(env, dir));
  auto is_artifact = [&](const std::string& rel) {
    return std::binary_search(artifacts.begin(), artifacts.end(), rel);
  };
  auto segment_id = [](const std::string& rel, uint64_t* id) {
    return rel.compare(0, 9, "segments/") == 0 &&
           storage::ParseSegmentBaseName(rel.substr(9), id);
  };
  uint64_t active_id = 0;  // the highest-numbered segment
  for (const std::string& rel : artifacts) {
    uint64_t id = 0;
    if (segment_id(rel, &id)) active_id = std::max(active_id, id);
  }
  for (const std::string& rel : artifacts) {
    uint64_t id = 0;
    const bool is_segment = segment_id(rel, &id);
    scan_file(rel, is_segment, is_segment && id == active_id);
  }
  auto add = [&](const std::string& rel, ScrubVerdict verdict,
                 const char* detail) {
    FileScrubResult r;
    r.path = rel;
    r.verdict = verdict;
    r.detail = detail;
    report.files.push_back(std::move(r));
  };
  bool has_segments_dir = false;
  for (const std::string& name : children) {
    has_segments_dir = has_segments_dir || name == "segments";
    if (name == "." || name == ".." || name == "segments" ||
        name == kSignerTreeFile || is_artifact(name)) {
      continue;
    }
    add(name, ScrubVerdict::kOrphan,
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0
            ? "temporary file (crash leftover)"
            : "unrecognized file");
    uint64_t size = 0;
    if (env->GetFileSize(dir + "/" + name, &size).ok()) {
      report.files.back().bytes = size;
    }
  }
  if (has_segments_dir) {
    std::vector<std::string> segs;
    MEDVAULT_RETURN_IF_ERROR(env->GetChildren(dir + "/segments", &segs));
    for (const std::string& name : segs) {
      if (name == "." || name == ".." || is_artifact("segments/" + name)) {
        continue;
      }
      add("segments/" + name, ScrubVerdict::kOrphan,
          "unrecognized file in segments/");
    }
  }

  // An initialized vault (one holding segments/ or any artifact) must
  // hold every expected artifact.
  const bool initialized = has_segments_dir || !artifacts.empty();
  for (const std::string& want : ExpectedArtifacts()) {
    if (initialized && !is_artifact(want)) {
      add(want, ScrubVerdict::kMissing, "expected vault artifact is absent");
    }
  }

  std::sort(report.files.begin(), report.files.end(),
            [](const FileScrubResult& a, const FileScrubResult& b) {
              return a.path < b.path;
            });
  for (const FileScrubResult& f : report.files) {
    if (f.verdict == ScrubVerdict::kCorrupt ||
        f.verdict == ScrubVerdict::kMissing) {
      report.corrupt_files++;
    } else if (f.verdict == ScrubVerdict::kOrphan) {
      report.orphan_files++;
    }
  }
  return report;
}

}  // namespace medvault::core
