#include "storage/env.h"

#include <algorithm>

namespace medvault::storage {

Status StreamFile(Env* env, const std::string& fname,
                  const std::function<Status(const Slice&)>& fn,
                  uint64_t offset, uint64_t length) {
  std::unique_ptr<SequentialFile> file;
  MEDVAULT_RETURN_IF_ERROR(env->NewSequentialFile(fname, &file));
  if (offset > 0) MEDVAULT_RETURN_IF_ERROR(file->Skip(offset));
  std::string window;
  for (uint64_t left = length; left > 0; left -= window.size()) {
    const size_t n = std::min<uint64_t>(kScanWindowBytes, left);
    MEDVAULT_RETURN_IF_ERROR(file->Read(n, &window));
    if (!window.empty()) MEDVAULT_RETURN_IF_ERROR(fn(window));
    if (window.size() == n) continue;
    if (length == kToEndOfFile) break;  // a short read is EOF
    return Status::Corruption(fname + " ends inside the range read");
  }
  return Status::OK();
}

Result<uint64_t> HashFile(Env* env, const std::string& fname,
                          crypto::Sha256* sha, uint64_t offset,
                          uint64_t length) {
  uint64_t hashed = 0;
  auto absorb = [&](const Slice& piece) {
    sha->Update(piece);
    hashed += piece.size();
    return Status::OK();
  };
  MEDVAULT_RETURN_IF_ERROR(StreamFile(env, fname, absorb, offset, length));
  return hashed;
}

Result<std::string> CopyFile(Env* src_env, const std::string& src,
                             Env* dst_env, const std::string& dst, bool sync,
                             const Slice& expected_sha256) {
  const size_t slash = dst.rfind('/');
  if (slash != std::string::npos) {
    MEDVAULT_RETURN_IF_ERROR(dst_env->CreateDirIfMissing(dst.substr(0, slash)));
  }
  const std::string tmp = dst + ".tmp";
  std::unique_ptr<WritableFile> out;
  MEDVAULT_RETURN_IF_ERROR(dst_env->NewWritableFile(tmp, &out));
  crypto::Sha256 sha;
  Status s = StreamFile(src_env, src, [&](const Slice& piece) {
    sha.Update(piece);
    return out->Append(piece);
  });
  if (s.ok() && sync) s = out->Sync();
  if (s.ok()) s = out->Close();
  std::string digest = sha.Finish();
  if (s.ok() && !expected_sha256.empty() && Slice(digest) != expected_sha256) {
    s = Status::TamperDetected(src + " does not match its expected SHA-256");
  }
  if (s.ok()) s = dst_env->RenameFile(tmp, dst);
  if (s.ok()) return digest;
  out.reset();
  (void)dst_env->RemoveFile(tmp);
  return s;
}

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  return StreamFile(env, fname, [data](const Slice& piece) {
    data->append(piece.data(), piece.size());
    return Status::OK();
  });
}

Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname, bool sync) {
  std::unique_ptr<WritableFile> file;
  MEDVAULT_RETURN_IF_ERROR(env->NewWritableFile(fname, &file));
  MEDVAULT_RETURN_IF_ERROR(file->Append(data));
  if (sync) MEDVAULT_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

}  // namespace medvault::storage
