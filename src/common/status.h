#ifndef MEDVAULT_COMMON_STATUS_H_
#define MEDVAULT_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace medvault {

/// Outcome of an operation that can fail. Library code never throws;
/// every fallible call returns a Status (or a Result<T>, which wraps one).
///
/// Codes are chosen for the compliance-storage domain: in addition to the
/// usual I/O and argument errors there are dedicated codes for policy
/// denials, tamper detection, WORM violations, and retention violations,
/// because callers (and the compliance-matrix harness) branch on them.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound = 1,
    kAlreadyExists = 2,
    kInvalidArgument = 3,
    kIoError = 4,
    kCorruption = 5,        // data failed checksum / parse
    kTamperDetected = 6,    // cryptographic integrity check failed
    kPermissionDenied = 7,  // access-control policy denial
    kWormViolation = 8,     // write/overwrite attempted on sealed media
    kRetentionViolation = 9,  // disposal attempted before retention expiry
    kKeyDestroyed = 10,     // record was crypto-shredded; plaintext gone
    kNotSupported = 11,
    kFailedPrecondition = 12,
    kBackupChainBroken = 13,  // backup chain references a missing/mismatched base
    kUnavailable = 14,      // temporarily offline (quarantined shard); retry
  };

  Status() : code_(Code::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status TamperDetected(std::string msg) {
    return Status(Code::kTamperDetected, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(Code::kPermissionDenied, std::move(msg));
  }
  static Status WormViolation(std::string msg) {
    return Status(Code::kWormViolation, std::move(msg));
  }
  static Status RetentionViolation(std::string msg) {
    return Status(Code::kRetentionViolation, std::move(msg));
  }
  static Status KeyDestroyed(std::string msg) {
    return Status(Code::kKeyDestroyed, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status BackupChainBroken(std::string msg) {
    return Status(Code::kBackupChainBroken, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  /// Wraps an error with call-site context while preserving the code
  /// callers branch on. OK passes through untouched.
  static Status WithContext(const Status& s, const std::string& context) {
    if (s.ok()) return s;
    return Status(s.code(), context + ": " + s.message());
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsTamperDetected() const { return code_ == Code::kTamperDetected; }
  bool IsPermissionDenied() const { return code_ == Code::kPermissionDenied; }
  bool IsWormViolation() const { return code_ == Code::kWormViolation; }
  bool IsRetentionViolation() const {
    return code_ == Code::kRetentionViolation;
  }
  bool IsKeyDestroyed() const { return code_ == Code::kKeyDestroyed; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsFailedPrecondition() const {
    return code_ == Code::kFailedPrecondition;
  }
  bool IsBackupChainBroken() const {
    return code_ == Code::kBackupChainBroken;
  }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if not OK.
#define MEDVAULT_RETURN_IF_ERROR(expr)             \
  do {                                             \
    ::medvault::Status _s = (expr);                \
    if (!_s.ok()) return _s;                       \
  } while (0)

}  // namespace medvault

#endif  // MEDVAULT_COMMON_STATUS_H_
