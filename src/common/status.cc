#include "common/status.h"

namespace medvault {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAlreadyExists:
      return "AlreadyExists";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kIoError:
      return "IoError";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kTamperDetected:
      return "TamperDetected";
    case Status::Code::kPermissionDenied:
      return "PermissionDenied";
    case Status::Code::kWormViolation:
      return "WormViolation";
    case Status::Code::kRetentionViolation:
      return "RetentionViolation";
    case Status::Code::kKeyDestroyed:
      return "KeyDestroyed";
    case Status::Code::kNotSupported:
      return "NotSupported";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kBackupChainBroken:
      return "BackupChainBroken";
    case Status::Code::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace medvault
