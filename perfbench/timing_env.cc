#include "timing_env.h"

namespace perfbench {

using medvault::Slice;
using medvault::Status;
using medvault::storage::RandomAccessFile;
using medvault::storage::RandomRWFile;
using medvault::storage::SequentialFile;
using medvault::storage::WritableFile;

namespace {

enum SpanOp { kAppendOp = 0, kReadOp = 1, kSyncOp = 2 };

class TimedSequentialFile : public SequentialFile {
 public:
  TimedSequentialFile(std::unique_ptr<SequentialFile> base, TimingEnv* env,
                      LogKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Read(size_t n, std::string* result) override {
    const uint64_t start = NowNs();
    Status s = base_->Read(n, result);
    env_->CountRead(kind_, s.ok() ? result->size() : 0, start, NowNs());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  TimingEnv* env_;
  LogKind kind_;
};

class TimedRandomAccessFile : public RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        TimingEnv* env, LogKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, std::string* result) const override {
    const uint64_t start = NowNs();
    Status s = base_->Read(offset, n, result);
    env_->CountRead(kind_, s.ok() ? result->size() : 0, start, NowNs());
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  TimingEnv* env_;
  LogKind kind_;
};

class TimedWritableFile : public WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> base, TimingEnv* env,
                    LogKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Append(const Slice& data) override {
    const uint64_t start = NowNs();
    Status s = base_->Append(data);
    env_->CountAppend(kind_, data.size(), start, NowNs());
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    const uint64_t start = NowNs();
    Status s = base_->Sync();
    env_->CountSync(kind_, start, NowNs());
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  TimingEnv* env_;
  LogKind kind_;
};

class TimedRandomRWFile : public RandomRWFile {
 public:
  TimedRandomRWFile(std::unique_ptr<RandomRWFile> base, TimingEnv* env,
                    LogKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    const uint64_t start = NowNs();
    Status s = base_->WriteAt(offset, data);
    env_->CountAppend(kind_, data.size(), start, NowNs());
    return s;
  }
  Status ReadAt(uint64_t offset, size_t n,
                std::string* result) const override {
    const uint64_t start = NowNs();
    Status s = base_->ReadAt(offset, n, result);
    env_->CountRead(kind_, s.ok() ? result->size() : 0, start, NowNs());
    return s;
  }
  Status Sync() override {
    const uint64_t start = NowNs();
    Status s = base_->Sync();
    env_->CountSync(kind_, start, NowNs());
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  TimingEnv* env_;
  LogKind kind_;
};

}  // namespace

const char* LogKindName(LogKind kind) {
  static const char* const kNames[kNumLogKinds] = {
      "segment", "catalog", "index", "audit",
      "provenance", "keystore", "state", "other"};
  return kNames[static_cast<int>(kind)];
}

LogKind LogKindOf(const std::string& fname) {
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base.rfind("seg-", 0) == 0) return LogKind::kSegment;
  if (base == "catalog.log") return LogKind::kCatalog;
  if (base == "index.log") return LogKind::kIndex;
  if (base == "audit.log") return LogKind::kAudit;
  if (base == "provenance.log") return LogKind::kProvenance;
  if (base == "keys.db") return LogKind::kKeystore;
  if (base == "state.log") return LogKind::kState;
  return LogKind::kOther;
}

void TimingEnv::AttachTracer(Tracer* tracer) {
  tracer_ = tracer;
  static const char* const kOps[3] = {"append", "read", "sync"};
  for (int k = 0; k < kNumLogKinds; k++) {
    for (int op = 0; op < 3; op++) {
      span_names_[k][op] = tracer->Intern(
          std::string("storage.") + kOps[op] + "." +
          LogKindName(static_cast<LogKind>(k)));
    }
  }
}

void TimingEnv::MaybeSpan(LogKind kind, int op, uint64_t start, uint64_t end) {
  const uint64_t parent = parent_.load(std::memory_order_acquire);
  if (tracer_ == nullptr || parent == 0) return;
  tracer_->Record(span_names_[static_cast<int>(kind)][op], start, end, parent,
                  request_.load(std::memory_order_relaxed));
}

void TimingEnv::CountAppend(LogKind kind, uint64_t bytes, uint64_t start,
                            uint64_t end) {
  Counters& c = counters_[static_cast<int>(kind)];
  c.appends.fetch_add(1, std::memory_order_relaxed);
  c.append_bytes.fetch_add(bytes, std::memory_order_relaxed);
  c.append_ns.fetch_add(end - start, std::memory_order_relaxed);
  MaybeSpan(kind, kAppendOp, start, end);
}

void TimingEnv::CountRead(LogKind kind, uint64_t bytes, uint64_t start,
                          uint64_t end) {
  Counters& c = counters_[static_cast<int>(kind)];
  c.reads.fetch_add(1, std::memory_order_relaxed);
  c.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  c.read_ns.fetch_add(end - start, std::memory_order_relaxed);
  MaybeSpan(kind, kReadOp, start, end);
}

void TimingEnv::CountSync(LogKind kind, uint64_t start, uint64_t end) {
  Counters& c = counters_[static_cast<int>(kind)];
  c.syncs.fetch_add(1, std::memory_order_relaxed);
  c.sync_ns.fetch_add(end - start, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_us_[static_cast<int>(kind)].push_back((end - start) / 1000.0);
  }
  MaybeSpan(kind, kSyncOp, start, end);
}

std::array<LogIo, kNumLogKinds> TimingEnv::Snapshot() const {
  std::array<LogIo, kNumLogKinds> out;
  for (int k = 0; k < kNumLogKinds; k++) {
    const Counters& c = counters_[k];
    out[k].appends = c.appends.load(std::memory_order_relaxed);
    out[k].append_bytes = c.append_bytes.load(std::memory_order_relaxed);
    out[k].append_ns = c.append_ns.load(std::memory_order_relaxed);
    out[k].reads = c.reads.load(std::memory_order_relaxed);
    out[k].read_bytes = c.read_bytes.load(std::memory_order_relaxed);
    out[k].read_ns = c.read_ns.load(std::memory_order_relaxed);
    out[k].syncs = c.syncs.load(std::memory_order_relaxed);
    out[k].sync_ns = c.sync_ns.load(std::memory_order_relaxed);
  }
  return out;
}

std::array<std::vector<double>, kNumLogKinds> TimingEnv::TakeSyncLatencies() {
  std::lock_guard<std::mutex> lock(sync_mu_);
  std::array<std::vector<double>, kNumLogKinds> out;
  out.swap(sync_us_);
  return out;
}

Status TimingEnv::NewSequentialFile(const std::string& fname,
                                    std::unique_ptr<SequentialFile>* file) {
  std::unique_ptr<SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedSequentialFile>(std::move(base), this,
                                                  LogKindOf(fname));
  }
  return s;
}

Status TimingEnv::NewRandomAccessFile(const std::string& fname,
                                      std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedRandomAccessFile>(std::move(base), this,
                                                    LogKindOf(fname));
  }
  return s;
}

Status TimingEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedWritableFile>(std::move(base), this,
                                                LogKindOf(fname));
  }
  return s;
}

Status TimingEnv::NewAppendableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedWritableFile>(std::move(base), this,
                                                LogKindOf(fname));
  }
  return s;
}

Status TimingEnv::NewRandomRWFile(const std::string& fname,
                                  std::unique_ptr<RandomRWFile>* file) {
  std::unique_ptr<RandomRWFile> base;
  Status s = base_->NewRandomRWFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedRandomRWFile>(std::move(base), this,
                                                LogKindOf(fname));
  }
  return s;
}

}  // namespace perfbench
