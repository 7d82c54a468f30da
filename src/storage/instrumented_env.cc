#include "storage/instrumented_env.h"

#include <utility>

namespace medvault::storage {

namespace {

class CountingSequentialFile : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(size_t n, std::string* result) override {
    Status s = base_->Read(n, result);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  IoStats* stats_;
};

class CountingRandomAccessFile : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, std::string* result) const override {
    Status s = base_->Read(offset, n, result);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  IoStats* stats_;
};

class CountingWritableFile : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Append(const Slice& data) override {
    Status s = base_->Append(data);
    stats_->writes.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      stats_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status Flush() override {
    stats_->flushes.fetch_add(1, std::memory_order_relaxed);
    return base_->Flush();
  }

  Status Sync() override {
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  IoStats* stats_;
};

class CountingRandomRWFile : public RandomRWFile {
 public:
  CountingRandomRWFile(std::unique_ptr<RandomRWFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    Status s = base_->WriteAt(offset, data);
    stats_->writes.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      stats_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status ReadAt(uint64_t offset, size_t n,
                std::string* result) const override {
    Status s = base_->ReadAt(offset, n, result);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status Sync() override {
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  IoStats* stats_;
};

}  // namespace

Status InstrumentedEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* file) {
  std::unique_ptr<SequentialFile> inner;
  MEDVAULT_RETURN_IF_ERROR(base_->NewSequentialFile(fname, &inner));
  stats_->file_opens.fetch_add(1, std::memory_order_relaxed);
  *file = std::make_unique<CountingSequentialFile>(std::move(inner), stats_);
  return Status::OK();
}

Status InstrumentedEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> inner;
  MEDVAULT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &inner));
  stats_->file_opens.fetch_add(1, std::memory_order_relaxed);
  *file = std::make_unique<CountingRandomAccessFile>(std::move(inner), stats_);
  return Status::OK();
}

Status InstrumentedEnv::NewWritableFile(const std::string& fname,
                                        std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> inner;
  MEDVAULT_RETURN_IF_ERROR(base_->NewWritableFile(fname, &inner));
  stats_->file_opens.fetch_add(1, std::memory_order_relaxed);
  *file = std::make_unique<CountingWritableFile>(std::move(inner), stats_);
  return Status::OK();
}

Status InstrumentedEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> inner;
  MEDVAULT_RETURN_IF_ERROR(base_->NewAppendableFile(fname, &inner));
  stats_->file_opens.fetch_add(1, std::memory_order_relaxed);
  *file = std::make_unique<CountingWritableFile>(std::move(inner), stats_);
  return Status::OK();
}

Status InstrumentedEnv::NewRandomRWFile(const std::string& fname,
                                        std::unique_ptr<RandomRWFile>* file) {
  std::unique_ptr<RandomRWFile> inner;
  MEDVAULT_RETURN_IF_ERROR(base_->NewRandomRWFile(fname, &inner));
  stats_->file_opens.fetch_add(1, std::memory_order_relaxed);
  *file = std::make_unique<CountingRandomRWFile>(std::move(inner), stats_);
  return Status::OK();
}

bool InstrumentedEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status InstrumentedEnv::GetChildren(const std::string& dir,
                                    std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status InstrumentedEnv::RemoveFile(const std::string& fname) {
  stats_->deletes.fetch_add(1, std::memory_order_relaxed);
  return base_->RemoveFile(fname);
}

Status InstrumentedEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status InstrumentedEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status InstrumentedEnv::RenameFile(const std::string& src,
                                   const std::string& target) {
  stats_->renames.fetch_add(1, std::memory_order_relaxed);
  return base_->RenameFile(src, target);
}

Status InstrumentedEnv::Truncate(const std::string& fname, uint64_t size) {
  return base_->Truncate(fname, size);
}

Status InstrumentedEnv::UnsafeOverwrite(const std::string& fname,
                                        uint64_t offset, const Slice& data) {
  return base_->UnsafeOverwrite(fname, offset, data);
}

Status InstrumentedEnv::UnsafeTruncate(const std::string& fname,
                                       uint64_t size) {
  return base_->UnsafeTruncate(fname, size);
}

}  // namespace medvault::storage
