#ifndef MEDVAULT_STORAGE_ASYNC_ENV_H_
#define MEDVAULT_STORAGE_ASYNC_ENV_H_

#include <memory>
#include <string>

#include "common/worker_pool.h"
// obs/metrics depends only on common (see src/CMakeLists.txt), so the
// storage layer may report into a registry without a layering cycle.
#include "obs/metrics.h"
#include "storage/env.h"

namespace medvault::storage {

/// An Env decorator that gives SubmitWrites/SubmitSyncs a genuinely
/// concurrent completion backend, so one commit window's syncs overlap
/// instead of queueing behind each other: each barrier runs as a
/// pooled task, so the threads park in fsync side by side.
///
/// Batched appends always use the pool: appends are buffered and cheap,
/// and per-file slot order must be preserved (requests are grouped by
/// file; groups run concurrently, a file's requests run in slot order).
///
/// Everything outside the batch API forwards to the base env untouched,
/// so AsyncEnv composes anywhere in a decorator stack. Batched work is
/// counted in the metrics registry:
///   env.sync.batched   barriers completed through the batch API
///   env.write.batched  appends completed through the batch API
class AsyncEnv : public Env {
 public:
  struct Options {
    /// Completion threads; 0 picks a small default (enough to overlap
    /// one vault's sync wave even on a single-core host, where the
    /// overlap comes from threads parked in fsync/simulated latency).
    unsigned threads = 0;
    /// Null uses the process-wide registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// `base` is borrowed and must outlive this env.
  explicit AsyncEnv(Env* base);
  AsyncEnv(Env* base, Options options);
  ~AsyncEnv() override;

  AsyncEnv(const AsyncEnv&) = delete;
  AsyncEnv& operator=(const AsyncEnv&) = delete;

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
  Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                         const Slice& data) override;
  Status UnsafeTruncate(const std::string& fname, uint64_t size) override;

  void SubmitWrites(WriteRequest* requests, size_t n,
                    BatchCompletion* done) override;
  void SubmitSyncs(WritableFile* const* files, size_t n,
                   BatchCompletion* done) override;

  unsigned thread_count() const { return pool_.thread_count(); }

 private:
  Env* base_;
  WorkerPool pool_;
  obs::Counter* batched_syncs_;
  obs::Counter* batched_writes_;
};

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_ASYNC_ENV_H_
