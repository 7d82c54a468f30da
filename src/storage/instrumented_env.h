#ifndef MEDVAULT_STORAGE_INSTRUMENTED_ENV_H_
#define MEDVAULT_STORAGE_INSTRUMENTED_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"

namespace medvault::storage {

/// Plain-value snapshot of IoStats (see below).
struct IoStatsSnapshot {
  uint64_t reads = 0;        ///< read calls (sequential/random/rw)
  uint64_t read_bytes = 0;   ///< bytes actually returned by reads
  uint64_t writes = 0;       ///< Append + WriteAt calls
  uint64_t write_bytes = 0;  ///< bytes handed to Append/WriteAt
  uint64_t syncs = 0;        ///< durability barriers issued
  uint64_t flushes = 0;
  uint64_t file_opens = 0;   ///< New*File calls that succeeded
  uint64_t deletes = 0;
  uint64_t renames = 0;
};

/// Lock-free I/O tally shared by an InstrumentedEnv and every file it
/// hands out. Several InstrumentedEnvs may feed one IoStats (process-
/// wide accounting across many vault Envs); the stats object must
/// outlive every file opened through the envs that use it.
struct IoStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> file_opens{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> renames{0};

  IoStatsSnapshot TakeSnapshot() const {
    IoStatsSnapshot s;
    s.reads = reads.load(std::memory_order_relaxed);
    s.read_bytes = read_bytes.load(std::memory_order_relaxed);
    s.writes = writes.load(std::memory_order_relaxed);
    s.write_bytes = write_bytes.load(std::memory_order_relaxed);
    s.syncs = syncs.load(std::memory_order_relaxed);
    s.flushes = flushes.load(std::memory_order_relaxed);
    s.file_opens = file_opens.load(std::memory_order_relaxed);
    s.deletes = deletes.load(std::memory_order_relaxed);
    s.renames = renames.load(std::memory_order_relaxed);
    return s;
  }
};

/// Pass-through Env decorator that counts calls and bytes — the storage
/// half of the observability layer. Wrapping a vault's Env makes I/O
/// amplification measurable: logical bytes ingested vs physical
/// read/write/sync traffic (HealthReport reports both). The wrapper
/// adds two relaxed atomic adds per I/O call, so it is cheap enough to
/// leave on in experiments; semantics (including the Unsafe* adversary
/// hooks and Truncate) are forwarded unchanged.
class InstrumentedEnv : public Env {
 public:
  /// Counts into `stats` when given (caller keeps ownership; must
  /// outlive the env and all files opened through it), else into an
  /// internal instance.
  explicit InstrumentedEnv(Env* base, IoStats* stats = nullptr)
      : base_(base), stats_(stats != nullptr ? stats : &own_stats_) {}

  IoStats* stats() { return stats_; }
  const IoStats* stats() const { return stats_; }
  Env* base() { return base_; }

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
  Status RenameFile(const std::string& src,
                    const std::string& target) override;
  Status Truncate(const std::string& fname, uint64_t size) override;
  Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                         const Slice& data) override;
  Status UnsafeTruncate(const std::string& fname, uint64_t size) override;

 private:
  Env* base_;
  IoStats* stats_;
  IoStats own_stats_;
};

}  // namespace medvault::storage

#endif  // MEDVAULT_STORAGE_INSTRUMENTED_ENV_H_
