#ifndef MEDVAULT_STORAGE_LOG_RECOVER_H_
#define MEDVAULT_STORAGE_LOG_RECOVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/env.h"
#include "storage/log_writer.h"

namespace medvault::storage::log {

/// Outcome of OpenLogForAppend.
struct LogOpenResult {
  /// Appendable writer positioned at the end of the valid prefix.
  std::unique_ptr<Writer> writer;
  /// Log size after recovery (== ValidEnd of the replayed reader).
  uint64_t valid_size = 0;
  /// Bytes of torn tail cut off (0 on a clean log or a fresh file).
  uint64_t dropped_bytes = 0;
};

/// Opens a record log for append with crash recovery — the one shared
/// open path for every MedVault log (state, audit, provenance, index
/// postings, version catalog, key log).
///
/// If `path` is missing, yields a fresh writer at offset 0. Otherwise
/// replays every complete record, with the file offset of its first
/// fragment (log::ReadRecordAt's address), through `replay` (non-OK
/// aborts the open), then handles an unclean-shutdown tail: when the
/// reader hit a torn final record (clean-EOF semantics with bytes left past
/// ValidEnd), the tail is cut off with Env::Truncate so the next append
/// lands on a well-formed log. Mid-file damage is different — the
/// reader reports kCorruption, which propagates as-is; recovery never
/// truncates what the tamper-evidence layer needs to see.
Status OpenLogForAppend(Env* env, const std::string& path,
                        const std::function<Status(const Slice& record,
                                                   uint64_t offset)>& replay,
                        LogOpenResult* result);

/// Replaces the log at `path` with the records `write` adds: they go to
/// `<path>.tmp`, which is synced, closed and renamed over `path`, so a
/// crash leaves the old log or the new one, never a mix. `*writer` is
/// dropped first and, on success, reopened to append at the new log's
/// end, and `*generation` is bumped.
Status RewriteLog(Env* env, const std::string& path,
                  const std::function<Status(Writer* tmp)>& write,
                  std::unique_ptr<Writer>* writer, uint64_t* generation);

}  // namespace medvault::storage::log

#endif  // MEDVAULT_STORAGE_LOG_RECOVER_H_
