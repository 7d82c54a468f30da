#ifndef MEDVAULT_CORE_SECURE_INDEX_H_
#define MEDVAULT_CORE_SECURE_INDEX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/keystore.h"
#include "core/record.h"
#include "storage/env.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"

namespace medvault::core {

/// Trustworthy keyword index (paper §3: "regular indexing schemes such as
/// keyword index can breach privacy as the mere existence of a word in a
/// document can leak information"; cf. Mitra et al., VLDB'06, and Mitra &
/// Winslett, StorageSS'06 on secure deletion from inverted indexes).
///
/// Design:
///  - Terms are *blinded*: the on-disk posting key is
///    HMAC(index_master_key, term), so raw index bytes reveal no keyword.
///  - Each posting's record id is AEAD-sealed under the *record's* index
///    key (derived from its data key) and tagged with the record's opaque
///    key-ref. Crypto-shredding the record therefore simultaneously kills
///    its index postings: the key-ref no longer resolves and the sealed
///    id can never be opened — secure deletion from an index that lives
///    on un-erasable WORM media.
///  - The posting log itself is append-only.
class SecureIndex {
 public:
  SecureIndex(storage::Env* env, std::string path, const Slice& master_key,
              KeyStore* keystore);

  SecureIndex(const SecureIndex&) = delete;
  SecureIndex& operator=(const SecureIndex&) = delete;

  /// Replays the posting log. After an unclean shutdown a torn final
  /// posting is cut off (nothing acknowledged is lost; the Vault syncs
  /// this log before the state-log commit point).
  Status Open();

  /// Durability barrier on the posting log.
  Status Sync();

  /// The log file for the vault's commit wave (null before Open); the vault
  /// serializes appends against the wave.
  storage::WritableFile* sync_target();

  /// Indexes `record_id` under each term (normalizes to lowercase).
  Status AddPostings(const RecordId& record_id,
                     const std::vector<std::string>& terms);

  /// One record's postings within an AddPostingsBatch call.
  struct PostingBatch {
    RecordId record_id;
    std::vector<std::string> terms;
  };

  /// Batched ingest fast path: identical semantics to calling
  /// AddPostings once per item, but all sealed entries are framed into a
  /// single buffered log write instead of one write per term.
  Status AddPostingsBatch(const std::vector<PostingBatch>& batch);

  /// Returns the ids of live records containing `term`, read back from
  /// the posting log. Postings whose record was crypto-shredded are
  /// skipped (and counted as dead). kTamperDetected if a posting's bytes
  /// no longer frame it under `term`, or if a live posting fails
  /// authentication.
  Result<std::vector<RecordId>> Search(const std::string& term) const;

  /// Conjunctive query: records containing *every* term (cf. Mitra et
  /// al.'s multi-keyword queries). Starts from the rarest term's
  /// postings and intersects.
  Result<std::vector<RecordId>> SearchAll(
      const std::vector<std::string>& terms) const;

  /// Re-reads the posting log from disk and verifies it: frame CRCs
  /// catch raw byte flips; live postings must AEAD-authenticate under
  /// their record's index key; the on-disk posting count must match the
  /// session state. (A rewritten key-ref degrades a posting to "dead",
  /// indistinguishable from crypto-shredding — an availability attack,
  /// documented in DESIGN.md as out of scope for stealth detection.)
  Status VerifyIntegrity() const;

  /// Number of postings whose record key still resolves / no longer
  /// resolves (observability for the secure-deletion experiments). Live
  /// postings are counted by reading every posting back; one that can no
  /// longer be read counts as dead.
  size_t LivePostingCount() const;
  size_t DeadPostingCount() const;
  size_t TotalPostingCount() const;

  /// Distinct blinded terms (structure leakage is term cardinality only).
  size_t TermCount() const { return postings_.size(); }

 private:
  /// One posting's fields, parsed from its log record.
  struct PostingView {
    Slice blind;
    Slice key_ref;
    Slice sealed_record_id;
  };
  /// Parses a posting record; false if it is malformed.
  static bool ParsePosting(const Slice& record, PostingView* out);
  /// Reads the posting at `span` back into `record` and parses it into
  /// `out`; kTamperDetected if the bytes there no longer frame a posting.
  Status ReadPosting(const storage::log::RecordSpan& span,
                     std::string* record, PostingView* out) const;

  std::string BlindTerm(const std::string& term) const;
  static std::string NormalizeTerm(const std::string& term);

  storage::Env* env_;
  std::string path_;
  std::string master_key_;
  KeyStore* keystore_;
  std::unique_ptr<storage::log::Writer> writer_;
  std::unique_ptr<storage::RandomAccessFile> file_;  ///< read-back handle
  /// blind -> where each of its postings sits in the log, in log order;
  /// transparent, so replay looks a blind up in place. The postings
  /// themselves are read back from the log.
  std::map<std::string, std::vector<storage::log::RecordSpan>, std::less<>>
      postings_;
  bool open_ = false;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_SECURE_INDEX_H_
