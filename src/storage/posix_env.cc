#include "storage/posix_env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace medvault::storage {

namespace {

Status PosixError(const std::string& context, int err) {
  std::string msg = context + ": " + strerror(err);
  if (err == ENOENT) return Status::NotFound(msg);
  return Status::IoError(msg);
}

// Positional read of exactly `n` bytes unless EOF intervenes: retries
// EINTR and loops on short preads, so a signal or a partial kernel read
// can never masquerade as EOF (upstream log readers treat a short
// result as end-of-file and would silently stop replaying).
Status PreadFully(int fd, const std::string& fname, uint64_t offset,
                  size_t n, std::string* result) {
  result->resize(n);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, result->data() + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return PosixError(fname, errno);
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  result->resize(got);
  return Status::OK();
}

// Full-length positional write: loops on partial writes and retries
// EINTR. A bare `w >= 0` success check would report success while
// silently dropping the unwritten tail.
Status PwriteFully(int fd, const std::string& fname, uint64_t offset,
                   const Slice& data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t w = ::pwrite(fd, p, left, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return PosixError(fname, errno);
    }
    p += w;
    offset += static_cast<uint64_t>(w);
    left -= static_cast<size_t>(w);
  }
  return Status::OK();
}

class PosixSequentialFile : public SequentialFile {
 public:
  explicit PosixSequentialFile(int fd, std::string fname)
      : fd_(fd), fname_(std::move(fname)) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, std::string* result) override {
    // Same contract as PreadFully: only EOF may shorten the result. The
    // buffer is sized by what the file still holds, so a small file read
    // through a large window is not allocated and zero-filled whole; the
    // size is looked up again only when a read would pass the end last
    // seen, so a file that grows is still read to its new end.
    if (pos_ + n > size_) size_ = FileSize();
    n = std::min<uint64_t>(n, size_ > pos_ ? size_ - pos_ : 0);
    result->resize(n);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::read(fd_, result->data() + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    result->resize(got);
    pos_ += got;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return PosixError(fname_, errno);
    }
    pos_ += n;
    return Status::OK();
  }

 private:
  /// The file's size now; the largest value when it cannot be read, so
  /// a failed lookup leaves reads uncapped.
  uint64_t FileSize() const {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return std::numeric_limits<uint64_t>::max();
    return static_cast<uint64_t>(st.st_size);
  }

  int fd_;
  std::string fname_;
  uint64_t pos_ = 0;   ///< read position: bytes read and skipped
  uint64_t size_ = 0;  ///< file size when last looked up
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  explicit PosixRandomAccessFile(int fd, std::string fname)
      : fd_(fd), fname_(std::move(fname)) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, std::string* result) const override {
    return PreadFully(fd_, fname_, offset, n, result);
  }

 private:
  int fd_;
  std::string fname_;
};

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd, std::string fname)
      : fd_(fd), fname_(std::move(fname)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t w = ::write(fd_, p, left);
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += w;
      left -= w;
    }
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    if (::fsync(fd_) < 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) < 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
  std::string fname_;
};

class PosixRandomRWFile : public RandomRWFile {
 public:
  explicit PosixRandomRWFile(int fd, std::string fname)
      : fd_(fd), fname_(std::move(fname)) {}
  ~PosixRandomRWFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    return PwriteFully(fd_, fname_, offset, data);
  }

  Status ReadAt(uint64_t offset, size_t n,
                std::string* result) const override {
    return PreadFully(fd_, fname_, offset, n, result);
  }

  Status Sync() override {
    if (::fsync(fd_) < 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) < 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
  std::string fname_;
};

}  // namespace

PosixEnv* PosixEnv::Default() {
  static PosixEnv* env = new PosixEnv();  // intentionally leaked singleton
  return env;
}

Status PosixEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* file) {
  int fd = ::open(fname.c_str(), O_RDONLY);
  if (fd < 0) return PosixError(fname, errno);
  *file = std::make_unique<PosixSequentialFile>(fd, fname);
  return Status::OK();
}

Status PosixEnv::NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* file) {
  int fd = ::open(fname.c_str(), O_RDONLY);
  if (fd < 0) return PosixError(fname, errno);
  *file = std::make_unique<PosixRandomAccessFile>(fd, fname);
  return Status::OK();
}

Status PosixEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* file) {
  int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return PosixError(fname, errno);
  *file = std::make_unique<PosixWritableFile>(fd, fname);
  return Status::OK();
}

Status PosixEnv::NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* file) {
  int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return PosixError(fname, errno);
  *file = std::make_unique<PosixWritableFile>(fd, fname);
  return Status::OK();
}

Status PosixEnv::NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* file) {
  int fd = ::open(fname.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return PosixError(fname, errno);
  *file = std::make_unique<PosixRandomRWFile>(fd, fname);
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& fname) {
  return ::access(fname.c_str(), F_OK) == 0;
}

Status PosixEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  result->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return PosixError(dir, errno);
  struct dirent* entry;
  while ((entry = ::readdir(d)) != nullptr) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") result->push_back(name);
  }
  ::closedir(d);
  return Status::OK();
}

Status PosixEnv::RemoveFile(const std::string& fname) {
  if (::unlink(fname.c_str()) < 0) return PosixError(fname, errno);
  return Status::OK();
}

Status PosixEnv::CreateDirIfMissing(const std::string& dirname) {
  if (::mkdir(dirname.c_str(), 0755) < 0 && errno != EEXIST) {
    return PosixError(dirname, errno);
  }
  return Status::OK();
}

Status PosixEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  struct stat st;
  if (::stat(fname.c_str(), &st) < 0) return PosixError(fname, errno);
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& src,
                            const std::string& target) {
  if (::rename(src.c_str(), target.c_str()) < 0) {
    return PosixError(src, errno);
  }
  return Status::OK();
}

Status PosixEnv::Truncate(const std::string& fname, uint64_t size) {
  uint64_t current = 0;
  MEDVAULT_RETURN_IF_ERROR(GetFileSize(fname, &current));
  if (size > current) {
    return Status::InvalidArgument("Truncate would extend file");
  }
  if (::truncate(fname.c_str(), static_cast<off_t>(size)) < 0) {
    return PosixError(fname, errno);
  }
  return Status::OK();
}

Status PosixEnv::UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                 const Slice& data) {
  uint64_t size = 0;
  MEDVAULT_RETURN_IF_ERROR(GetFileSize(fname, &size));
  if (offset + data.size() > size) {
    return Status::InvalidArgument("UnsafeOverwrite beyond EOF");
  }
  int fd = ::open(fname.c_str(), O_WRONLY);
  if (fd < 0) return PosixError(fname, errno);
  Status s = PwriteFully(fd, fname, offset, data);
  ::close(fd);
  return s;
}

Status PosixEnv::UnsafeTruncate(const std::string& fname, uint64_t size) {
  if (::truncate(fname.c_str(), static_cast<off_t>(size)) < 0) {
    return PosixError(fname, errno);
  }
  return Status::OK();
}

}  // namespace medvault::storage
