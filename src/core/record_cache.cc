#include "core/record_cache.h"

namespace medvault::core {

namespace {

/// Best-effort in-memory shredding (keystore discipline): volatile
/// prevents dead-store elimination of the overwrite.
void WipeString(std::string* s) {
  volatile char* p = s->data();
  for (size_t i = 0; i < s->size(); i++) p[i] = 0;
  s->clear();
}

}  // namespace

RecordCache::RecordCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

RecordCache::~RecordCache() {
  for (Entry& e : lru_) WipeString(&e.value.plaintext);
}

std::string RecordCache::Key(const RecordId& record_id, uint32_t version) {
  return record_id + "@" + std::to_string(version);
}

std::optional<RecordVersion> RecordCache::Get(
    const RecordId& record_id, uint32_t version,
    const std::string& expected_entry_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  if (expected_entry_hash.empty()) {
    // The caller has no catalog hash to authenticate against, so the
    // cache cannot serve — but that is a property of the caller, not
    // evidence against the entry. Bypass without touching it (evicting
    // here would let an unauthenticated reader flush valid entries and
    // masquerade as tampering in the rejection stat).
    stats_.bypasses++;
    stats_.misses++;
    return std::nullopt;
  }
  auto it = index_.find(Key(record_id, version));
  if (it == index_.end()) {
    stats_.misses++;
    return std::nullopt;
  }
  if (it->second->entry_hash != expected_entry_hash) {
    // The caller's source of truth disagrees with what was cached:
    // never serve it — drop it and treat as a miss.
    stats_.rejections++;
    stats_.misses++;
    RemoveLocked(it->second);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits++;
  return it->second->value;
}

void RecordCache::Put(const RecordId& record_id, uint32_t version,
                      const std::string& entry_hash,
                      const RecordVersion& value) {
  if (value.plaintext.size() > capacity_bytes_ || entry_hash.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key(record_id, version));
  if (it != index_.end()) RemoveLocked(it->second);
  lru_.push_front(Entry{record_id, version, entry_hash, value});
  index_[Key(record_id, version)] = lru_.begin();
  by_record_[record_id].insert(version);
  charge_ += value.plaintext.size();
  EvictToFitLocked();
}

void RecordCache::PurgeRecord(const RecordId& record_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto rec = by_record_.find(record_id);
  if (rec == by_record_.end()) return;
  // RemoveLocked mutates by_record_; iterate over a copy of versions.
  std::set<uint32_t> versions = rec->second;
  for (uint32_t v : versions) {
    auto it = index_.find(Key(record_id, v));
    if (it != index_.end()) {
      stats_.purges++;
      RemoveLocked(it->second);
    }
  }
}

RecordCache::Stats RecordCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t RecordCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t RecordCache::charge_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charge_;
}

void RecordCache::RemoveLocked(LruList::iterator it) {
  charge_ -= it->value.plaintext.size();
  WipeString(&it->value.plaintext);
  auto rec = by_record_.find(it->record_id);
  if (rec != by_record_.end()) {
    rec->second.erase(it->version);
    if (rec->second.empty()) by_record_.erase(rec);
  }
  index_.erase(Key(it->record_id, it->version));
  lru_.erase(it);
}

void RecordCache::EvictToFitLocked() {
  while (charge_ > capacity_bytes_ && !lru_.empty()) {
    stats_.evictions++;
    RemoveLocked(std::prev(lru_.end()));
  }
}

}  // namespace medvault::core
