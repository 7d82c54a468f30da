#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

// Storage-layer probe of the service benchmark: an Env decorator that
// times every Append, Read and Sync, attributed to the vault log the file
// belongs to. Only traced runs open the vault through it.

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "storage/env.h"

namespace perfbench {

/// The vault's on-disk logs, by file name.
enum class LogKind : int {
  kSegment = 0,
  kCatalog,
  kIndex,
  kAudit,
  kProvenance,
  kKeystore,
  kState,
  kOther,
};
constexpr int kNumLogKinds = 8;
const char* LogKindName(LogKind kind);
LogKind LogKindOf(const std::string& fname);

/// Plain-value counts of one log kind.
struct LogIo {
  uint64_t appends = 0, append_bytes = 0, append_ns = 0;
  uint64_t reads = 0, read_bytes = 0, read_ns = 0;
  uint64_t syncs = 0, sync_ns = 0;
};

class TimingEnv : public medvault::storage::Env {
 public:
  explicit TimingEnv(medvault::storage::Env* base) : base_(base) {}

  /// I/O spans are recorded into `tracer` while a parent span is set
  /// (SetParent), so a replayed request's storage time can be subtracted
  /// from its vault span. Counts and sync latencies are always kept.
  void AttachTracer(Tracer* tracer);
  void SetParent(uint64_t parent_span, uint64_t request) {
    request_.store(request, std::memory_order_relaxed);
    parent_.store(parent_span, std::memory_order_release);
  }

  std::array<LogIo, kNumLogKinds> Snapshot() const;
  /// Sync latencies (us) per log kind since the last call; clears them.
  std::array<std::vector<double>, kNumLogKinds> TakeSyncLatencies();

  // Called by the wrapped files.
  void CountAppend(LogKind kind, uint64_t bytes, uint64_t start, uint64_t end);
  void CountRead(LogKind kind, uint64_t bytes, uint64_t start, uint64_t end);
  void CountSync(LogKind kind, uint64_t start, uint64_t end);

  medvault::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::SequentialFile>* file) override;
  medvault::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::RandomAccessFile>* file) override;
  medvault::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::WritableFile>* file) override;
  medvault::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::WritableFile>* file) override;
  medvault::Status NewRandomRWFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::RandomRWFile>* file) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  medvault::Status GetChildren(const std::string& dir,
                               std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  medvault::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  medvault::Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  medvault::Status GetFileSize(const std::string& fname,
                               uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  medvault::Status RenameFile(const std::string& src,
                              const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  medvault::Status Truncate(const std::string& fname, uint64_t size) override {
    return base_->Truncate(fname, size);
  }

 private:
  struct Counters {
    std::atomic<uint64_t> appends{0}, append_bytes{0}, append_ns{0};
    std::atomic<uint64_t> reads{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> syncs{0}, sync_ns{0};
  };

  void MaybeSpan(LogKind kind, int op, uint64_t start, uint64_t end);

  medvault::storage::Env* base_;
  std::array<Counters, kNumLogKinds> counters_;
  std::mutex sync_mu_;
  // guarded by sync_mu_
  std::array<std::vector<double>, kNumLogKinds> sync_us_;
  Tracer* tracer_ = nullptr;
  std::array<std::array<uint32_t, 3>, kNumLogKinds> span_names_{};
  std::atomic<uint64_t> parent_{0};
  std::atomic<uint64_t> request_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
