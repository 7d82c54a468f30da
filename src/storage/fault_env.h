#ifndef MEDVAULT_STORAGE_FAULT_ENV_H_
#define MEDVAULT_STORAGE_FAULT_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"

namespace medvault::storage {

/// An Env decorator that injects I/O failures, for crash/fault testing.
///
/// Modes:
///  - FailAfterWrites(n): the n+1-th and later Append/WriteAt calls fail
///    with kIoError (models a full or dying disk mid-operation).
///  - FailWrites(bool): hard on/off switch.
///  - FailNextSyncs(k): the next k Sync() calls fail (data reached the
///    page cache but the durability barrier broke).
///  - FailNextReads(k) / FailNextWrites(k): the next k read/write calls
///    fail with kIoError, then the path recovers — a *transient* media
///    fault, the kind RetryEnv is expected to absorb.
///  - FailReads(bool): *persistent* read failure (dying media); every
///    read fails until cleared, so bounded retries must give up.
///  - FailFileCreation(bool): creating new files fails (ENOSPC-style).
///  - FlipBit(fname, offset, bit): silent single-bit rot injected via
///    the unsafe channel — exactly what Scrub exists to localize.
///  - PlanCrash(k): power cut at I/O boundary k — see below.
///
/// Counters (writes, syncs, reads, unsafe_writes) let tests assert I/O
/// behaviour, e.g. "backup verification reads every byte". All knobs and
/// counters are atomics, safe to poke while worker threads do I/O.
///
/// Crash simulation: every Append/WriteAt/Sync across all files is one
/// I/O boundary, numbered from 0 in call order. After PlanCrash(k), the
/// op at boundary k fails — an Append lands a deterministic prefix of
/// its payload first (torn write), a Sync fails without persisting — and
/// every later mutating operation (writes, syncs, file creation, rename,
/// remove, truncate) fails until Reset(), as if the machine lost power.
/// Run the workload once fault-free and read ops() to size a crash
/// matrix. Pair with MemEnv::CrashAndRecover to discard unsynced bytes
/// before "rebooting".
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  FaultInjectionEnv(const FaultInjectionEnv&) = delete;
  FaultInjectionEnv& operator=(const FaultInjectionEnv&) = delete;

  /// Writes beyond the next `n` fail. Resets the write counter.
  void FailAfterWrites(uint64_t n) {
    writes_allowed_.store(n);
    limited_.store(true);
  }
  void FailWrites(bool fail) { fail_writes_.store(fail); }
  /// The next `k` Sync() calls fail with kIoError.
  void FailNextSyncs(uint64_t k) { syncs_to_fail_.store(k); }
  /// Transient read fault: the next `k` SequentialFile::Read /
  /// RandomAccessFile::Read / RandomRWFile::ReadAt calls fail with
  /// kIoError, after which reads succeed again.
  void FailNextReads(uint64_t k) { reads_to_fail_.store(k); }
  /// Persistent read fault: while set, every read fails with kIoError.
  void FailReads(bool fail) { fail_reads_.store(fail); }
  /// Transient write fault: the next `k` sanctioned Append/WriteAt
  /// calls fail cleanly (no torn prefix), after which writes succeed.
  void FailNextWrites(uint64_t k) { writes_to_fail_.store(k); }
  /// While set, NewWritableFile/NewAppendableFile/NewRandomRWFile fail.
  /// Opening existing files for read is unaffected.
  void FailFileCreation(bool fail) { fail_file_creation_.store(fail); }

  /// Arms a power cut at I/O boundary `k` (0-based; every Append,
  /// WriteAt, and Sync counts as one boundary).
  void PlanCrash(uint64_t k) {
    crash_at_.store(k);
    crash_armed_.store(true);
  }
  /// True once an armed crash has fired.
  bool crashed() const { return crashed_.load(); }
  /// Total I/O boundaries seen since the last Reset().
  uint64_t ops() const { return ops_.load(); }

  /// Flips bit `bit` (0-7) of the byte at `offset` in `fname` through
  /// the unsafe channel — models silent bit-rot / an insider with disk
  /// access. Counted as one unsafe write; never consumes fault credits.
  Status FlipBit(const std::string& fname, uint64_t offset, int bit);

  void Reset() {
    fail_writes_.store(false);
    limited_.store(false);
    writes_allowed_.store(0);
    syncs_to_fail_.store(0);
    reads_to_fail_.store(0);
    fail_reads_.store(false);
    writes_to_fail_.store(0);
    fail_file_creation_.store(false);
    crash_armed_.store(false);
    crashed_.store(false);
    crash_at_.store(0);
    writes_ = syncs_ = reads_ = unsafe_writes_ = ops_ = 0;
  }

  uint64_t writes() const { return writes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }
  uint64_t reads() const { return reads_.load(); }
  /// UnsafeOverwrite/UnsafeTruncate calls (adversary channel). Counted
  /// separately from writes(): unsafe ops bypass the sanctioned write
  /// path, so they never consume fault credits or trip a planned crash.
  uint64_t unsafe_writes() const { return unsafe_writes_.load(); }

  /// Gate for a sanctioned write of `size` bytes. On kIoError,
  /// *torn_prefix says how many leading bytes still reach the file
  /// (non-zero only when a planned crash fires mid-write). Called by
  /// the wrapped file objects.
  Status BeforeWrite(size_t size, size_t* torn_prefix);
  /// Gate for a Sync. On kIoError the barrier must not be forwarded.
  Status BeforeSync();
  /// Gate for a read: counts it, then applies the transient
  /// (FailNextReads) and persistent (FailReads) fault knobs.
  Status BeforeRead();

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override;
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* file) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* file) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* file) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    MEDVAULT_RETURN_IF_ERROR(CheckMutationAllowed());
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    MEDVAULT_RETURN_IF_ERROR(CheckMutationAllowed());
    return base_->RenameFile(src, target);
  }
  Status Truncate(const std::string& fname, uint64_t size) override {
    MEDVAULT_RETURN_IF_ERROR(CheckMutationAllowed());
    return base_->Truncate(fname, size);
  }
  Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                         const Slice& data) override {
    unsafe_writes_++;
    return base_->UnsafeOverwrite(fname, offset, data);
  }
  Status UnsafeTruncate(const std::string& fname, uint64_t size) override {
    unsafe_writes_++;
    return base_->UnsafeTruncate(fname, size);
  }

 private:
  /// Refuses metadata mutations once a planned crash has fired.
  Status CheckMutationAllowed();

  Env* base_;
  std::atomic<bool> fail_writes_{false};
  std::atomic<bool> limited_{false};
  std::atomic<uint64_t> writes_allowed_{0};
  std::atomic<uint64_t> syncs_to_fail_{0};
  std::atomic<uint64_t> reads_to_fail_{0};
  std::atomic<bool> fail_reads_{false};
  std::atomic<uint64_t> writes_to_fail_{0};
  std::atomic<bool> fail_file_creation_{false};
  std::atomic<bool> crash_armed_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> crash_at_{0};
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> unsafe_writes_{0};
};

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_FAULT_ENV_H_
