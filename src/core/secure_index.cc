#include "core/secure_index.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <unordered_set>

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

bool SecureIndex::ParsePosting(const Slice& record, PostingView* out) {
  Slice in = record;
  return GetLengthPrefixed(&in, &out->blind) &&
         GetLengthPrefixed(&in, &out->key_ref) &&
         GetLengthPrefixed(&in, &out->sealed_record_id) && in.empty();
}

Status SecureIndex::ReadPosting(const storage::log::RecordSpan& span,
                                std::string* record,
                                PostingView* out) const {
  Status read =
      storage::log::ReadRecordAt(*file_, span.offset, span.limit, record);
  if (read.IsCorruption()) {
    return Status::TamperDetected("index posting unreadable: " +
                                  read.message());
  }
  MEDVAULT_RETURN_IF_ERROR(read);
  if (!ParsePosting(*record, out)) {
    return Status::TamperDetected("malformed index posting read back");
  }
  return Status::OK();
}

Status SecureIndex::Open() {
  // A posting's read bound is the next posting's offset, or the log's end.
  storage::log::RecordSpan* newest = nullptr;
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env_, path_,
      [&](const Slice& record, uint64_t offset) -> Status {
        PostingView posting;
        if (!ParsePosting(record, &posting)) {
          return Status::Corruption("malformed index posting");
        }
        // A term's postings arrive many times over: look the blind up
        // in place, and copy it only for a term seen the first time.
        auto it = postings_.find(posting.blind.ToStringView());
        if (it == postings_.end()) {
          it = postings_.try_emplace(posting.blind.ToString()).first;
        }
        if (newest != nullptr) newest->limit = offset;
        newest = &it->second.emplace_back(storage::log::RecordSpan{offset, 0});
        return Status::OK();
      },
      &res));
  if (newest != nullptr) newest->limit = res.valid_size;
  // Growth left up to half of each list unused; a replayed index keeps
  // 16 B per posting.
  for (auto& [blind, spans] : postings_) spans.shrink_to_fit();
  writer_ = std::move(res.writer);
  MEDVAULT_RETURN_IF_ERROR(env_->NewRandomAccessFile(path_, &file_));
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
  std::vector<std::string> entries;
  std::vector<std::string> blinds;
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
      blinds.push_back(std::move(blind));
    }
  }
  if (entries.empty()) return Status::OK();
  std::vector<Slice> slices(entries.begin(), entries.end());
  std::vector<uint64_t> offsets(entries.size());
  MEDVAULT_RETURN_IF_ERROR(
      writer_->AddRecords(slices.data(), slices.size(), offsets.data()));
  for (size_t i = 0; i < blinds.size(); i++) {
    const uint64_t limit =
        i + 1 < offsets.size() ? offsets[i + 1] : writer_->FileOffset();
    postings_[blinds[i]].push_back(
        storage::log::RecordSpan{offsets[i], limit});
  }
  return Status::OK();
}

Result<std::vector<RecordId>> SecureIndex::Search(
    const std::string& term) const {
  if (!open_) return Status::FailedPrecondition("index not open");
  std::vector<RecordId> results;
  auto it = postings_.find(BlindTerm(term));
  if (it == postings_.end()) return results;
  // A record re-posts a term on each correction; it is answered once, at
  // its first posting.
  std::unordered_set<RecordId> seen;

  // Spans are in log order, so the reads walk the file forwards.
  std::string record;
  for (const storage::log::RecordSpan& span : it->second) {
    PostingView posting;
    MEDVAULT_RETURN_IF_ERROR(ReadPosting(span, &record, &posting));
    if (posting.blind != Slice(it->first)) {
      return Status::TamperDetected("index posting filed under another term");
    }
    auto record_id = keystore_->ResolveKeyRef(posting.key_ref);
    if (!record_id.ok()) continue;  // crypto-shredded: dead posting
    auto index_key = keystore_->GetIndexKey(*record_id);
    if (!index_key.ok()) continue;
    crypto::Aead aead;
    MEDVAULT_RETURN_IF_ERROR(aead.Init(*index_key));
    auto opened = aead.Open(posting.sealed_record_id, it->first);
    if (!opened.ok()) {
      // A posting that resolves but fails authentication is tampering,
      // not deletion.
      return Status::TamperDetected("index posting failed authentication");
    }
    if (*opened != *record_id) {
      return Status::TamperDetected("index posting names wrong record");
    }
    if (seen.insert(*opened).second) results.push_back(std::move(*opened));
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
    PostingView posting;
    if (!ParsePosting(record, &posting)) {
      return Status::TamperDetected("malformed index posting on disk");
    }
    auto record_id = keystore_->ResolveKeyRef(posting.key_ref);
    if (record_id.ok()) {
      auto index_key = keystore_->GetIndexKey(*record_id);
      if (!index_key.ok()) {
        return Status::TamperDetected("index posting key inconsistent");
      }
      crypto::Aead aead;
      MEDVAULT_RETURN_IF_ERROR(aead.Init(*index_key));
      auto opened = aead.Open(posting.sealed_record_id, posting.blind);
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
    const std::unordered_set<RecordId> in_next(
        std::make_move_iterator(next.begin()),
        std::make_move_iterator(next.end()));
    result.erase(std::remove_if(result.begin(), result.end(),
                                [&](const RecordId& id) {
                                  return in_next.count(id) == 0;
                                }),
                 result.end());
  }
  return result;
}

size_t SecureIndex::LivePostingCount() const {
  size_t live = 0;
  std::string record;
  for (const auto& [blind, spans] : postings_) {
    for (const storage::log::RecordSpan& span : spans) {
      PostingView posting;
      if (ReadPosting(span, &record, &posting).ok() &&
          keystore_->ResolveKeyRef(posting.key_ref).ok()) {
        live++;
      }
    }
  }
  return live;
}

size_t SecureIndex::DeadPostingCount() const {
  return TotalPostingCount() - LivePostingCount();
}

size_t SecureIndex::TotalPostingCount() const {
  size_t total = 0;
  for (const auto& [blind, spans] : postings_) total += spans.size();
  return total;
}

}  // namespace medvault::core
