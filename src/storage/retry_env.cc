#include "storage/retry_env.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace medvault::storage {

namespace {

/// Total attempts per operation: 1 initial try + 3 retries.
constexpr int kMaxAttempts = 4;
/// Backoff before the first retry; doubles per retry.
constexpr uint64_t kInitialBackoffMicros = 100;
/// Backoff ceiling.
constexpr uint64_t kMaxBackoffMicros = 10000;

class RetrySequentialFile : public SequentialFile {
 public:
  RetrySequentialFile(std::unique_ptr<SequentialFile> base, RetryEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(size_t n, std::string* result) override {
    return env_->RunWithRetry(env_->read_retry_counter(),
                              [&] { return base_->Read(n, result); });
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  RetryEnv* env_;
};

class RetryRandomAccessFile : public RandomAccessFile {
 public:
  RetryRandomAccessFile(std::unique_ptr<RandomAccessFile> base, RetryEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, std::string* result) const override {
    return env_->RunWithRetry(env_->read_retry_counter(), [&] {
      return base_->Read(offset, n, result);
    });
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  RetryEnv* env_;
};

class RetryWritableFile : public WritableFile {
 public:
  RetryWritableFile(std::unique_ptr<WritableFile> base, RetryEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(const Slice& data) override {
    return env_->RunWithRetry(env_->write_retry_counter(),
                              [&] { return base_->Append(data); });
  }
  Status Flush() override {
    return env_->RunWithRetry(env_->write_retry_counter(),
                              [&] { return base_->Flush(); });
  }
  Status Sync() override {
    return env_->RunWithRetry(env_->sync_retry_counter(),
                              [&] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  RetryEnv* env_;
};

class RetryRandomRWFile : public RandomRWFile {
 public:
  RetryRandomRWFile(std::unique_ptr<RandomRWFile> base, RetryEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    return env_->RunWithRetry(env_->write_retry_counter(), [&] {
      return base_->WriteAt(offset, data);
    });
  }
  Status ReadAt(uint64_t offset, size_t n,
                std::string* result) const override {
    return env_->RunWithRetry(env_->read_retry_counter(), [&] {
      return base_->ReadAt(offset, n, result);
    });
  }
  Status Sync() override {
    return env_->RunWithRetry(env_->sync_retry_counter(),
                              [&] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  RetryEnv* env_;
};

}  // namespace

RetryEnv::RetryEnv(Env* base, RetryOptions options,
                   obs::MetricsRegistry* metrics)
    : base_(base), options_(std::move(options)) {
  if (metrics == nullptr) metrics = obs::MetricsRegistry::Default();
  retry_reads_ = metrics->GetCounter("env.retry.reads");
  retry_writes_ = metrics->GetCounter("env.retry.writes");
  retry_syncs_ = metrics->GetCounter("env.retry.syncs");
  retry_exhausted_ = metrics->GetCounter("env.retry.exhausted");
}

Status RetryEnv::RunWithRetry(obs::Counter* kind_counter,
                              const std::function<Status()>& op) {
  uint64_t backoff = kInitialBackoffMicros;
  Status s = op();
  for (int attempt = 1; attempt < kMaxAttempts && s.IsIoError(); ++attempt) {
    if (options_.sleeper) {
      options_.sleeper(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    backoff = std::min(backoff * 2, kMaxBackoffMicros);
    kind_counter->Increment();
    s = op();
  }
  if (s.IsIoError()) retry_exhausted_->Increment();
  return s;
}

Status RetryEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* file) {
  std::unique_ptr<SequentialFile> base;
  MEDVAULT_RETURN_IF_ERROR(base_->NewSequentialFile(fname, &base));
  *file = std::make_unique<RetrySequentialFile>(std::move(base), this);
  return Status::OK();
}

Status RetryEnv::NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> base;
  MEDVAULT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &base));
  *file = std::make_unique<RetryRandomAccessFile>(std::move(base), this);
  return Status::OK();
}

Status RetryEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  MEDVAULT_RETURN_IF_ERROR(base_->NewWritableFile(fname, &base));
  *file = std::make_unique<RetryWritableFile>(std::move(base), this);
  return Status::OK();
}

Status RetryEnv::NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  MEDVAULT_RETURN_IF_ERROR(base_->NewAppendableFile(fname, &base));
  *file = std::make_unique<RetryWritableFile>(std::move(base), this);
  return Status::OK();
}

Status RetryEnv::NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* file) {
  std::unique_ptr<RandomRWFile> base;
  MEDVAULT_RETURN_IF_ERROR(base_->NewRandomRWFile(fname, &base));
  *file = std::make_unique<RetryRandomRWFile>(std::move(base), this);
  return Status::OK();
}

bool RetryEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status RetryEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status RetryEnv::RemoveFile(const std::string& fname) {
  return base_->RemoveFile(fname);
}

Status RetryEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status RetryEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status RetryEnv::RenameFile(const std::string& src, const std::string& target) {
  return base_->RenameFile(src, target);
}

Status RetryEnv::Truncate(const std::string& fname, uint64_t size) {
  return base_->Truncate(fname, size);
}

Status RetryEnv::UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                 const Slice& data) {
  return base_->UnsafeOverwrite(fname, offset, data);
}

Status RetryEnv::UnsafeTruncate(const std::string& fname, uint64_t size) {
  return base_->UnsafeTruncate(fname, size);
}

}  // namespace medvault::storage
