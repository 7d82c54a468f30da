#ifndef MEDVAULT_STORAGE_ENV_H_
#define MEDVAULT_STORAGE_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace medvault::storage {

/// Sequential read-only file.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes. A short (possibly empty) result means EOF.
  virtual Status Read(size_t n, std::string* result) = 0;

  /// Skips `n` bytes.
  virtual Status Skip(uint64_t n) = 0;
};

/// Positional read-only file.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes at `offset`. Short result means EOF.
  virtual Status Read(uint64_t offset, size_t n,
                      std::string* result) const = 0;
};

/// Append-only writable file (log/segment discipline).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  /// Durability barrier. MemEnv treats it as a no-op.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Random-write file (B+tree pages). Kept separate from WritableFile so
/// append-only stores cannot accidentally acquire overwrite ability.
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  virtual Status WriteAt(uint64_t offset, const Slice& data) = 0;
  virtual Status ReadAt(uint64_t offset, size_t n,
                        std::string* result) const = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Filesystem abstraction (RocksDB idiom). Everything in MedVault does
/// I/O through an Env, so tests run on MemEnv, fault tests on
/// FaultInjectionEnv, and production on PosixEnv.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* file) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* file) = 0;
  /// Creates/truncates.
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* file) = 0;
  /// Opens for append, creating if missing.
  virtual Status NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* file) = 0;
  /// Opens for random read/write, creating if missing.
  virtual Status NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* file) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDirIfMissing(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  /// Sanctioned truncation, used exclusively by crash recovery to cut a
  /// torn tail off a log after an unclean shutdown. Unlike
  /// UnsafeTruncate (the adversary's tool, which leaves the durability
  /// snapshot alone so tampering stays detectable), this is an honest
  /// durable operation. May not shrink-to-extend; `size` must be at most
  /// the current file size.
  virtual Status Truncate(const std::string& fname, uint64_t size) {
    (void)fname;
    (void)size;
    return Status::NotSupported("Truncate not supported by this Env");
  }

  /// Overwrites `data.size()` bytes at `offset` in an existing file,
  /// bypassing every append-only / WORM discipline in the layers above.
  ///
  /// This exists to *model the adversary*: the paper's threat is a
  /// malicious insider "with direct disk access" (§4). Production code
  /// must never call it; the simulator does. The default refuses.
  virtual Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                 const Slice& data) {
    return Status::NotSupported("UnsafeOverwrite not supported by this Env");
  }

  /// Truncates a file to `size` bytes (adversary: log truncation attack).
  virtual Status UnsafeTruncate(const std::string& fname, uint64_t size) {
    return Status::NotSupported("UnsafeTruncate not supported by this Env");
  }
};

/// The one read window of streamed file reads (segment frame walks,
/// the scrub's record-log scans, file copies and hashes): no reader
/// holds more of a file at once. A whole number of log blocks, so a log
/// scan never splits a block.
inline constexpr size_t kScanWindowBytes = 256 * 1024;

/// `length` of a StreamFile range that runs to the end of the file.
inline constexpr uint64_t kToEndOfFile = ~uint64_t{0};

/// Reads `length` bytes of `fname` from `offset` through one window of
/// kScanWindowBytes, handing each piece to `fn` in file order. A file
/// that ends inside a bounded range is kCorruption; an error from `fn`
/// stops the read and is returned.
Status StreamFile(Env* env, const std::string& fname,
                  const std::function<Status(const Slice&)>& fn,
                  uint64_t offset = 0, uint64_t length = kToEndOfFile);

/// Feeds a StreamFile range of `fname` into `*sha`; returns the number
/// of bytes hashed.
Result<uint64_t> HashFile(Env* env, const std::string& fname,
                          crypto::Sha256* sha, uint64_t offset = 0,
                          uint64_t length = kToEndOfFile);

/// Copies `src` to `dst` through StreamFile: creates the parent of
/// `dst`, writes `<dst>.tmp`, syncs it when `sync`, and renames it over
/// `dst`. Returns the SHA-256 of the bytes copied. If `expected_sha256`
/// is set and differs, returns kTamperDetected and leaves `dst`
/// untouched.
Result<std::string> CopyFile(Env* src_env, const std::string& src,
                             Env* dst_env, const std::string& dst, bool sync,
                             const Slice& expected_sha256 = Slice());

/// Convenience: reads a whole file into `*data`.
Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data);

/// Convenience: atomically-ish writes `data` as the new file contents.
Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname, bool sync);

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_ENV_H_
