#ifndef MEDVAULT_CORE_PROVENANCE_H_
#define MEDVAULT_CORE_PROVENANCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/record.h"
#include "storage/env.h"
#include "storage/log_writer.h"

namespace medvault::core {

/// Life events of a record relevant to chain of custody
/// (HIPAA §164.310(d)(2)(iii): "maintain a record of the movements of
/// hardware and electronic media and any person responsible therefore").
enum class CustodyEventType : uint8_t {
  kCreated = 1,
  kAccessed = 2,
  kCorrected = 3,
  kMigratedOut = 4,
  kMigratedIn = 5,
  kBackedUp = 6,
  kRestored = 7,
  kDisposed = 8,
  kCustodyTransferred = 9,
};

const char* CustodyEventTypeName(CustodyEventType type);

/// One link in a record's custody chain. Events of a record are
/// hash-chained (prev_hash = SHA-256 of the previous event's encoding),
/// so the chain's final hash commits to the full history and the chain
/// can be handed to a successor system at migration time and verified
/// there (paper §4: "current storage systems do not implement
/// trustworthy provenance").
struct CustodyEvent {
  RecordId record_id;
  CustodyEventType type = CustodyEventType::kCreated;
  PrincipalId actor;
  std::string system_id;  ///< which storage system performed the event
  Timestamp timestamp = 0;
  std::string details;
  std::string prev_hash;

  std::string Encode() const;
  static Result<CustodyEvent> Decode(const Slice& data);
};

/// Per-record custody chains on an append-only log.
class ProvenanceTracker {
 public:
  ProvenanceTracker(storage::Env* env, std::string path,
                    std::string system_id);

  ProvenanceTracker(const ProvenanceTracker&) = delete;
  ProvenanceTracker& operator=(const ProvenanceTracker&) = delete;

  /// Replays the custody log; a torn final event after an unclean
  /// shutdown is cut off.
  Status Open();

  /// Durability barrier on the custody log.
  Status Sync();

  /// The log file for the vault's commit wave (null before Open); the vault
  /// serializes appends against the wave.
  storage::WritableFile* sync_target();

  /// Appends an event to `record_id`'s chain; returns the event's hash
  /// (the new chain head).
  Result<std::string> RecordEvent(const RecordId& record_id,
                                  CustodyEventType type,
                                  const PrincipalId& actor,
                                  const std::string& details, Timestamp now);

  /// The full chain for a record, oldest first.
  Result<std::vector<CustodyEvent>> GetChain(const RecordId& record_id) const;

  /// Current chain-head hash ("" if the record has no events).
  std::string ChainHead(const RecordId& record_id) const;

  /// Recomputes and checks one record's hash chain.
  Status VerifyChain(const RecordId& record_id) const;

  /// Verifies every chain.
  Status VerifyAllChains() const;

  /// Serialized chain for handover to another system (migration).
  Result<std::string> ExportChain(const RecordId& record_id) const;

  /// Installs an imported chain (verifying it) for a record this system
  /// has not seen. Subsequent local events extend the imported chain.
  Status ImportChain(const RecordId& record_id, const Slice& data);

  const std::string& system_id() const { return system_id_; }
  size_t RecordCount() const { return chains_.size(); }

 private:
  static Status VerifyEvents(const std::vector<CustodyEvent>& events);

  storage::Env* env_;
  std::string path_;
  std::string system_id_;
  std::unique_ptr<storage::log::Writer> writer_;
  std::map<RecordId, std::vector<CustodyEvent>> chains_;
  std::map<RecordId, std::string> heads_;
  bool open_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_PROVENANCE_H_
