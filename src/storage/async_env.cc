#include "storage/async_env.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

namespace medvault::storage {

namespace {

unsigned DefaultThreads() {
  // Enough to overlap one vault's commit wave (segment + side logs)
  // even when hardware_concurrency() is 1 — the threads spend their
  // time parked in fsync (or simulated sync latency), not on a core.
  unsigned hw = std::thread::hardware_concurrency();
  return std::max(4u, std::min(hw, 16u));
}

}  // namespace

AsyncEnv::AsyncEnv(Env* base) : AsyncEnv(base, Options()) {}

AsyncEnv::AsyncEnv(Env* base, Options options)
    : base_(base),
      pool_(options.threads > 0 ? options.threads : DefaultThreads()) {
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : obs::MetricsRegistry::Default();
  batched_syncs_ = metrics->GetCounter("env.sync.batched");
  batched_writes_ = metrics->GetCounter("env.write.batched");
}

AsyncEnv::~AsyncEnv() = default;

Status AsyncEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* file) {
  return base_->NewSequentialFile(fname, file);
}
Status AsyncEnv::NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* file) {
  return base_->NewRandomAccessFile(fname, file);
}
Status AsyncEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* file) {
  return base_->NewWritableFile(fname, file);
}
Status AsyncEnv::NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* file) {
  return base_->NewAppendableFile(fname, file);
}
Status AsyncEnv::NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* file) {
  return base_->NewRandomRWFile(fname, file);
}
bool AsyncEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}
Status AsyncEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}
Status AsyncEnv::RemoveFile(const std::string& fname) {
  return base_->RemoveFile(fname);
}
Status AsyncEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}
Status AsyncEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}
Status AsyncEnv::RenameFile(const std::string& src, const std::string& target) {
  return base_->RenameFile(src, target);
}
Status AsyncEnv::Truncate(const std::string& fname, uint64_t size) {
  return base_->Truncate(fname, size);
}
Status AsyncEnv::UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                 const Slice& data) {
  return base_->UnsafeOverwrite(fname, offset, data);
}
Status AsyncEnv::UnsafeTruncate(const std::string& fname, uint64_t size) {
  return base_->UnsafeTruncate(fname, size);
}

void AsyncEnv::SubmitWrites(WriteRequest* requests, size_t n,
                            BatchCompletion* done) {
  if (n == 0) return;
  batched_writes_->Increment(n);
  // Group slots by file: a file's appends must land in slot order, so
  // each file's run of requests becomes one pooled task; distinct files
  // overlap.
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    size_t g = groups.size();
    for (size_t j = 0; j < groups.size(); ++j) {
      if (requests[groups[j].front()].file == requests[i].file) {
        g = j;
        break;
      }
    }
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }
  for (auto& group : groups) {
    pool_.Submit([requests, done, group = std::move(group)] {
      for (size_t i : group) {
        done->Fulfill(i, requests[i].file->Append(requests[i].data));
      }
    });
  }
}

void AsyncEnv::SubmitSyncs(WritableFile* const* files, size_t n,
                           BatchCompletion* done) {
  if (n == 0) return;
  batched_syncs_->Increment(n);
  for (size_t i = 0; i < n; ++i) {
    pool_.Submit([files, done, i] { done->Fulfill(i, files[i]->Sync()); });
  }
}

}  // namespace medvault::storage
