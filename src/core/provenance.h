#ifndef MEDVAULT_CORE_PROVENANCE_H_
#define MEDVAULT_CORE_PROVENANCE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/record.h"
#include "core/record_table.h"
#include "storage/env.h"
#include "storage/log_reader.h"
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

/// An encoded CustodyEvent's fields as slices of the encoding. Parse is
/// the one decoder: CustodyEvent::Decode copies its fields out, and log
/// replay checks events and files them under their record without
/// copying them.
struct CustodyEventView {
  Slice record_id;
  CustodyEventType type = CustodyEventType::kCreated;
  Slice actor;
  Slice system_id;
  Timestamp timestamp = 0;
  Slice details;
  Slice prev_hash;

  static Result<CustodyEventView> Parse(const Slice& data);
};

/// Per-record custody chains on an append-only log. Memory holds, per
/// record ordinal, only its chain head and where its events sit in the
/// log (16 bytes per event); every chain read goes back to the log and
/// is checked link by link against that head.
class ProvenanceTracker {
 public:
  /// Chains are held per ordinal of `records` (the vault's table); null
  /// gives the tracker a table of its own.
  ProvenanceTracker(storage::Env* env, std::string path,
                    std::string system_id, RecordTable* records = nullptr);

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

  /// The full chain for a record, oldest first, read back from the log.
  /// kTamperDetected if the log no longer holds the chain whose head is
  /// resident (a broken link, a changed event, unreadable bytes).
  Result<std::vector<CustodyEvent>> GetChain(const RecordId& record_id) const;

  /// Current chain-head hash ("" if the record has no events).
  std::string ChainHead(const RecordId& record_id) const;

  /// Reads one record's chain back and checks its hash links and head.
  Status VerifyChain(const RecordId& record_id) const;

  /// Verifies every chain from the log's bytes, and that the log holds
  /// no event outside them.
  Status VerifyAllChains() const;

  /// Serialized chain for handover to another system (migration), read
  /// back and verified like GetChain.
  Result<std::string> ExportChain(const RecordId& record_id) const;

  /// Installs an imported chain (verifying it) for a record this system
  /// has not seen. Subsequent local events extend the imported chain.
  Status ImportChain(const RecordId& record_id, const Slice& data);

  const std::string& system_id() const { return system_id_; }
  size_t RecordCount() const;

 private:
  /// A record's chain as held in memory; no events means no chain.
  struct Chain {
    std::array<char, 32> head{};  ///< SHA-256 of the newest event
    std::vector<storage::log::RecordSpan> events;
  };

  /// The chain of `record_id`, or null if it has none.
  const Chain* Find(const RecordId& record_id) const;

  /// Reads `record_id`'s events back, oldest first, handing each event's
  /// encoding and decoding to `fn`; checks every prev_hash link and the
  /// final hash against the resident head.
  Status ReadChain(
      const RecordId& record_id,
      const std::function<void(const Slice&, CustodyEvent&&)>& fn) const;

  /// Adds the event encoded as `encoded`, logged at [offset, limit), to
  /// `chain`.
  static storage::log::RecordSpan& AddEvent(Chain* chain,
                                            const Slice& encoded,
                                            uint64_t offset, uint64_t limit);

  /// Appends `e` to the log and to `record_id`'s chain.
  Status LogEvent(const RecordId& record_id, const CustodyEvent& e);

  storage::Env* env_;
  std::string path_;
  std::string system_id_;
  std::unique_ptr<storage::log::Writer> writer_;
  std::unique_ptr<storage::RandomAccessFile> file_;  ///< read-back handle
  RecordTable own_records_;  ///< used when no table was given
  RecordTable* records_;
  std::deque<Chain> chains_;  ///< by record ordinal
  bool open_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_PROVENANCE_H_
