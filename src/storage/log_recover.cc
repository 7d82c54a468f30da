#include "storage/log_recover.h"

#include "storage/log_reader.h"

namespace medvault::storage::log {

Status OpenLogForAppend(Env* env, const std::string& path,
                        const std::function<Status(const Slice& record,
                                                   uint64_t offset)>& replay,
                        LogOpenResult* result) {
  result->writer.reset();
  result->valid_size = 0;
  result->dropped_bytes = 0;

  if (env->FileExists(path)) {
    uint64_t file_size = 0;
    MEDVAULT_RETURN_IF_ERROR(env->GetFileSize(path, &file_size));

    std::unique_ptr<SequentialFile> src;
    MEDVAULT_RETURN_IF_ERROR(env->NewSequentialFile(path, &src));
    Reader reader(std::move(src));
    std::string record;
    while (reader.ReadRecord(&record)) {
      MEDVAULT_RETURN_IF_ERROR(
          replay(Slice(record), reader.LastRecordOffset()));
    }
    MEDVAULT_RETURN_IF_ERROR(reader.status());

    result->valid_size = reader.ValidEnd();
    if (result->valid_size < file_size) {
      // Torn tail from an unclean shutdown: the bytes past the last
      // complete record never parsed as a record, so no acknowledged
      // write is lost by cutting them.
      result->dropped_bytes = file_size - result->valid_size;
      MEDVAULT_RETURN_IF_ERROR(env->Truncate(path, result->valid_size));
    }
  }

  std::unique_ptr<WritableFile> dest;
  MEDVAULT_RETURN_IF_ERROR(env->NewAppendableFile(path, &dest));
  result->writer =
      std::make_unique<Writer>(std::move(dest), result->valid_size);
  return Status::OK();
}

Status RewriteLog(Env* env, const std::string& path,
                  const std::function<Status(Writer* tmp)>& write,
                  std::unique_ptr<Writer>* writer, uint64_t* generation) {
  writer->reset();
  const std::string tmp_path = path + ".tmp";
  std::unique_ptr<WritableFile> tmp_file;
  MEDVAULT_RETURN_IF_ERROR(env->NewWritableFile(tmp_path, &tmp_file));
  Writer tmp(std::move(tmp_file));
  MEDVAULT_RETURN_IF_ERROR(write(&tmp));
  MEDVAULT_RETURN_IF_ERROR(tmp.Sync());
  MEDVAULT_RETURN_IF_ERROR(tmp.Close());
  MEDVAULT_RETURN_IF_ERROR(env->RenameFile(tmp_path, path));

  uint64_t size = 0;
  MEDVAULT_RETURN_IF_ERROR(env->GetFileSize(path, &size));
  std::unique_ptr<WritableFile> dest;
  MEDVAULT_RETURN_IF_ERROR(env->NewAppendableFile(path, &dest));
  *writer = std::make_unique<Writer>(std::move(dest), size);
  ++*generation;
  return Status::OK();
}

}  // namespace medvault::storage::log
