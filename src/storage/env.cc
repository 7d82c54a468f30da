#include "storage/env.h"

namespace medvault::storage {

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  MEDVAULT_RETURN_IF_ERROR(env->NewSequentialFile(fname, &file));
  std::string chunk;
  constexpr size_t kChunk = 64 * 1024;
  while (true) {
    MEDVAULT_RETURN_IF_ERROR(file->Read(kChunk, &chunk));
    if (chunk.empty()) break;
    data->append(chunk);
  }
  return Status::OK();
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
