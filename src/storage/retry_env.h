#ifndef MEDVAULT_STORAGE_RETRY_ENV_H_
#define MEDVAULT_STORAGE_RETRY_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

// obs/metrics depends only on common (see src/CMakeLists.txt), so the
// storage layer may report into a registry without a layering cycle.
#include "obs/metrics.h"
#include "storage/env.h"

namespace medvault::storage {

/// Options of RetryEnv. The retry policy itself is fixed in
/// retry_env.cc: a few attempts with exponential backoff absorb a
/// handful of transient faults in well under 100ms while a persistent
/// fault (dying media) still surfaces quickly.
struct RetryOptions {
  /// Injectable sleep (tests pass a recorder so retries are instant and
  /// the backoff sequence is assertable). Null sleeps the thread.
  std::function<void(uint64_t micros)> sleeper;
};

/// An Env decorator that retries *transient* I/O faults — the EINTR/EIO
/// blips long-horizon archival media exhibit — with bounded exponential
/// backoff, so a single transient fault does not surface as a failed
/// clinical read. Only kIoError is retried: NotFound, Corruption and
/// TamperDetected are deterministic verdicts that retrying cannot (and
/// must not) change. Retried paths: file Read/ReadAt, Append/WriteAt/
/// Flush, and Sync. A failed write is assumed side-effect free (true of
/// MemEnv and the fault-injection knobs this is tested under); a torn
/// physical write after power loss is crash recovery's job, not ours.
///
/// Every retry is counted in the metrics registry, so retry pressure —
/// the early-warning signal for dying media — is visible in any
/// HealthReport built from the same registry:
///   env.retry.reads / env.retry.writes / env.retry.syncs
///       retries performed (per op class)
///   env.retry.exhausted
///       operations that still failed after the attempt bound
class RetryEnv : public Env {
 public:
  /// `base` and `metrics` are not owned and must outlive the env. Null
  /// `metrics` uses the process-wide registry.
  explicit RetryEnv(Env* base, RetryOptions options = {},
                    obs::MetricsRegistry* metrics = nullptr);

  RetryEnv(const RetryEnv&) = delete;
  RetryEnv& operator=(const RetryEnv&) = delete;

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

  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  Status Truncate(const std::string& fname, uint64_t size) override;
  // The unsafe adversary channel passes through unretried: injected
  // tampering must behave identically with or without this decorator.
  Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                         const Slice& data) override;
  Status UnsafeTruncate(const std::string& fname, uint64_t size) override;

  /// Runs `op`, retrying kIoError up to the attempt bound with
  /// exponential backoff; bumps `kind_counter` once per retry and the
  /// exhausted counter if the bound is hit. Used by the file wrappers;
  /// exposed for them, not for general callers.
  Status RunWithRetry(obs::Counter* kind_counter,
                      const std::function<Status()>& op);

  obs::Counter* read_retry_counter() const { return retry_reads_; }
  obs::Counter* write_retry_counter() const { return retry_writes_; }
  obs::Counter* sync_retry_counter() const { return retry_syncs_; }
  obs::Counter* exhausted_counter() const { return retry_exhausted_; }

 private:
  Env* base_;
  RetryOptions options_;
  obs::Counter* retry_reads_;
  obs::Counter* retry_writes_;
  obs::Counter* retry_syncs_;
  obs::Counter* retry_exhausted_;
};

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_RETRY_ENV_H_
