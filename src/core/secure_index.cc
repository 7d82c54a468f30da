#include "core/secure_index.h"

#include <algorithm>
#include <cctype>

#include "common/coding.h"
#include "crypto/aead.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"

namespace medvault::core {

SecureIndex::SecureIndex(storage::Env* env, std::string path,
                         const Slice& master_key, KeyStore* keystore)
    : env_(env),
      path_(std::move(path)),
      master_key_(master_key.ToString()),
      keystore_(keystore) {}

std::string SecureIndex::NormalizeTerm(const std::string& term) {
  std::string out;
  out.reserve(term.size());
  for (char c : term) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string SecureIndex::BlindTerm(const std::string& term) const {
  return crypto::HmacSha256(master_key_, "term:" + NormalizeTerm(term));
}

Status SecureIndex::Open() {
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, path_,
      [this](const Slice& record, uint64_t) -> Status {
        Slice in = record;
        Slice blind, key_ref, sealed;
        if (!GetLengthPrefixed(&in, &blind) ||
            !GetLengthPrefixed(&in, &key_ref) ||
            !GetLengthPrefixed(&in, &sealed) || !in.empty()) {
          return Status::Corruption("malformed index posting");
        }
        // A term's postings arrive many times over: look the blind up
        // in place, and copy it only for a term seen the first time.
        auto it = postings_.find(blind.ToStringView());
        if (it == postings_.end()) {
          it = postings_.try_emplace(blind.ToString()).first;
        }
        it->second.push_back(Posting{key_ref.ToString(), sealed.ToString()});
        return Status::OK();
      },
      &res));
  writer_ = std::move(res.writer);
  open_ = true;
  return Status::OK();
}

Status SecureIndex::Sync() {
  if (!open_) return Status::FailedPrecondition("index not open");
  return writer_->Sync();
}

storage::WritableFile* SecureIndex::sync_target() {
  if (!open_) return nullptr;
  return writer_->file();
}

Status SecureIndex::AddPostings(const RecordId& record_id,
                                const std::vector<std::string>& terms) {
  return AddPostingsBatch({PostingBatch{record_id, terms}});
}

Status SecureIndex::AddPostingsBatch(const std::vector<PostingBatch>& batch) {
  if (!open_) return Status::FailedPrecondition("index not open");

  // Seal everything first, then commit with one coalesced log write; the
  // in-memory map is only updated once the bytes are down.
  struct PendingPosting {
    std::string blind;
    Posting posting;
  };
  std::vector<std::string> entries;
  std::vector<PendingPosting> pending;
  for (const PostingBatch& item : batch) {
    MEDVAULT_ASSIGN_OR_RETURN(std::string index_key,
                              keystore_->GetIndexKey(item.record_id));
    MEDVAULT_ASSIGN_OR_RETURN(std::string key_ref,
                              keystore_->GetKeyRef(item.record_id));
    crypto::Aead aead;
    MEDVAULT_RETURN_IF_ERROR(aead.Init(index_key));

    for (const std::string& term : item.terms) {
      std::string blind = BlindTerm(term);
      // Deterministic nonce: per (record key, term). Re-indexing the same
      // term for the same record reuses nonce AND plaintext, which leaks
      // only equality of identical postings — safe for CTR.
      std::string nonce_full =
          crypto::HmacSha256(index_key, "medvault-posting-nonce" + blind);
      Slice nonce(nonce_full.data(), crypto::kCtrNonceSize);
      MEDVAULT_ASSIGN_OR_RETURN(std::string sealed,
                                aead.Seal(nonce, item.record_id, blind));
      std::string entry;
      PutLengthPrefixed(&entry, blind);
      PutLengthPrefixed(&entry, key_ref);
      PutLengthPrefixed(&entry, sealed);
      entries.push_back(std::move(entry));
      pending.push_back(
          PendingPosting{std::move(blind), Posting{key_ref,
                                                   std::move(sealed)}});
    }
  }
  if (entries.empty()) return Status::OK();
  std::vector<Slice> slices(entries.begin(), entries.end());
  MEDVAULT_RETURN_IF_ERROR(writer_->AddRecords(slices.data(), slices.size()));
  for (PendingPosting& p : pending) {
    postings_[p.blind].push_back(std::move(p.posting));
  }
  return Status::OK();
}

Result<std::vector<RecordId>> SecureIndex::Search(
    const std::string& term) const {
  if (!open_) return Status::FailedPrecondition("index not open");
  std::vector<RecordId> results;
  auto it = postings_.find(BlindTerm(term));
  if (it == postings_.end()) return results;

  for (const Posting& posting : it->second) {
    auto record = keystore_->ResolveKeyRef(posting.key_ref);
    if (!record.ok()) continue;  // crypto-shredded: dead posting
    auto index_key = keystore_->GetIndexKey(*record);
    if (!index_key.ok()) continue;
    crypto::Aead aead;
    MEDVAULT_RETURN_IF_ERROR(aead.Init(*index_key));
    auto opened = aead.Open(posting.sealed_record_id, it->first);
    if (!opened.ok()) {
      // A posting that resolves but fails authentication is tampering,
      // not deletion.
      return Status::TamperDetected("index posting failed authentication");
    }
    if (*opened != *record) {
      return Status::TamperDetected("index posting names wrong record");
    }
    if (std::find(results.begin(), results.end(), *opened) ==
        results.end()) {
      results.push_back(*opened);
    }
  }
  return results;
}

Status SecureIndex::VerifyIntegrity() const {
  if (!open_) return Status::FailedPrecondition("index not open");
  std::unique_ptr<storage::SequentialFile> src;
  Status open_status = env_->NewSequentialFile(path_, &src);
  if (open_status.IsNotFound()) {
    return TotalPostingCount() == 0
               ? Status::OK()
               : Status::TamperDetected("index file missing");
  }
  MEDVAULT_RETURN_IF_ERROR(open_status);
  storage::log::Reader reader(std::move(src));
  std::string record;
  size_t on_disk = 0;
  while (reader.ReadRecord(&record)) {
    Slice in = record;
    std::string blind, key_ref, sealed;
    if (!GetLengthPrefixedString(&in, &blind) ||
        !GetLengthPrefixedString(&in, &key_ref) ||
        !GetLengthPrefixedString(&in, &sealed) || !in.empty()) {
      return Status::TamperDetected("malformed index posting on disk");
    }
    auto record_id = keystore_->ResolveKeyRef(key_ref);
    if (record_id.ok()) {
      auto index_key = keystore_->GetIndexKey(*record_id);
      if (!index_key.ok()) {
        return Status::TamperDetected("index posting key inconsistent");
      }
      crypto::Aead aead;
      MEDVAULT_RETURN_IF_ERROR(aead.Init(*index_key));
      auto opened = aead.Open(sealed, blind);
      if (!opened.ok() || *opened != *record_id) {
        return Status::TamperDetected("index posting fails authentication");
      }
    }
    on_disk++;
  }
  if (reader.status().IsCorruption()) {
    return Status::TamperDetected("index log bytes corrupted: " +
                                  reader.status().message());
  }
  MEDVAULT_RETURN_IF_ERROR(reader.status());
  if (on_disk != TotalPostingCount()) {
    return Status::TamperDetected("index posting count mismatch");
  }
  return Status::OK();
}

Result<std::vector<RecordId>> SecureIndex::SearchAll(
    const std::vector<std::string>& terms) const {
  if (!open_) return Status::FailedPrecondition("index not open");
  if (terms.empty()) return std::vector<RecordId>();

  // Evaluate the rarest term first to keep the working set small.
  std::vector<std::pair<size_t, std::string>> by_selectivity;
  by_selectivity.reserve(terms.size());
  for (const std::string& term : terms) {
    auto it = postings_.find(BlindTerm(term));
    size_t count = (it == postings_.end()) ? 0 : it->second.size();
    if (count == 0) return std::vector<RecordId>();  // empty intersection
    by_selectivity.emplace_back(count, term);
  }
  std::sort(by_selectivity.begin(), by_selectivity.end());

  MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> result,
                            Search(by_selectivity[0].second));
  for (size_t i = 1; i < by_selectivity.size() && !result.empty(); i++) {
    MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> next,
                              Search(by_selectivity[i].second));
    std::vector<RecordId> merged;
    for (const RecordId& id : result) {
      if (std::find(next.begin(), next.end(), id) != next.end()) {
        merged.push_back(id);
      }
    }
    result = std::move(merged);
  }
  return result;
}

size_t SecureIndex::LivePostingCount() const {
  size_t live = 0;
  for (const auto& [blind, list] : postings_) {
    for (const Posting& p : list) {
      if (keystore_->ResolveKeyRef(p.key_ref).ok()) live++;
    }
  }
  return live;
}

size_t SecureIndex::DeadPostingCount() const {
  return TotalPostingCount() - LivePostingCount();
}

size_t SecureIndex::TotalPostingCount() const {
  size_t total = 0;
  for (const auto& [blind, list] : postings_) total += list.size();
  return total;
}

}  // namespace medvault::core
