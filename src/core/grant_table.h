#ifndef MEDVAULT_CORE_GRANT_TABLE_H_
#define MEDVAULT_CORE_GRANT_TABLE_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/record.h"

namespace medvault::core {

/// Time-boxed grants (break-glass overrides, consent grants) by id,
/// live strictly before their `expires_at`. Two more indexes keep every
/// operation off the whole table: (patient, grantee, id) order, so a
/// lookup walks only one pair's grants, and expiry order, so Prune pops
/// only expired heads. Lookups never match an expired grant; it leaves
/// the table at the next Prune (every Insert runs one), so Find and
/// Erase may still see it until then. Ids are "<prefix>-<n>".
///
/// `T` has `grant_id`, `patient` and `expires_at`; `kGrantee` names
/// the grantee field. Not thread-safe.
template <typename T, PrincipalId T::*kGrantee>
class GrantTable {
 public:
  explicit GrantTable(std::string prefix) : prefix_(std::move(prefix)) {}

  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }

  /// A fresh id, never issued or replayed before.
  std::string NextId() { return prefix_ + "-" + std::to_string(next_++); }

  /// Keeps NextId ahead of a replayed "<prefix>-<n>" id, so an id is
  /// never issued twice; other ids are ignored.
  void NoteId(const std::string& id) {
    const size_t number_at = prefix_.size() + 1;
    if (id.size() <= number_at ||
        id.compare(0, prefix_.size(), prefix_) != 0 ||
        id[prefix_.size()] != '-') {
      return;
    }
    uint64_t n = 0;
    const char* last = id.data() + id.size();
    auto [ptr, ec] = std::from_chars(id.data() + number_at, last, n);
    if (ec == std::errc() && ptr == last && n >= next_) next_ = n + 1;
  }

  /// Prunes at `now`, then installs `grant` (replacing one with the
  /// same id) unless it has already expired.
  void Insert(T grant, Timestamp now) {
    Prune(now);
    Erase(grant.grant_id);
    if (grant.expires_at <= now) return;
    const std::string id = grant.grant_id;
    const T& stored = by_id_.emplace(id, std::move(grant)).first->second;
    by_pair_.emplace(PairKey(stored.patient, stored.*kGrantee, id), &stored);
    by_expiry_.emplace(stored.expires_at, id);
  }

  const T* Find(const std::string& id) const {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : &it->second;
  }

  /// False if no grant has this id.
  bool Erase(const std::string& id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    const T& g = it->second;
    by_pair_.erase(PairKey(g.patient, g.*kGrantee, id));
    by_expiry_.erase({g.expires_at, id});
    by_id_.erase(it);
    return true;
  }

  /// The live grant of (patient, grantee) with the lowest id in string
  /// order that `match` accepts, or null.
  template <typename Match>
  const T* FindLive(const PrincipalId& patient, const PrincipalId& grantee,
                    Timestamp now, Match match) const {
    for (auto it = by_pair_.lower_bound(PairKey(patient, grantee, ""));
         it != by_pair_.end() && std::get<0>(it->first) == patient &&
         std::get<1>(it->first) == grantee;
         ++it) {
      if (it->second->expires_at > now && match(*it->second)) {
        return it->second;
      }
    }
    return nullptr;
  }

  /// The grants naming `patient`, live or not, in id order.
  std::vector<T> ForPatient(const PrincipalId& patient) const {
    std::map<std::string, const T*> in_id_order;
    for (auto it = by_pair_.lower_bound(PairKey(patient, "", ""));
         it != by_pair_.end() && std::get<0>(it->first) == patient; ++it) {
      in_id_order.emplace(std::get<2>(it->first), it->second);
    }
    std::vector<T> out;
    for (const auto& entry : in_id_order) out.push_back(*entry.second);
    return out;
  }

  /// Costs one step per expired grant not yet pruned.
  size_t LiveCount(Timestamp now) const {
    size_t live = by_id_.size();
    for (auto it = by_expiry_.begin();
         it != by_expiry_.end() && it->first <= now; ++it) {
      --live;
    }
    return live;
  }

  /// Every grant, live or not, in id order.
  std::vector<T> All() const {
    std::vector<T> out;
    for (const auto& entry : by_id_) out.push_back(entry.second);
    return out;
  }

 private:
  using PairKey = std::tuple<PrincipalId, PrincipalId, std::string>;

  /// Drops every grant with expires_at <= now.
  void Prune(Timestamp now) {
    while (!by_expiry_.empty() && by_expiry_.begin()->first <= now) {
      Erase(std::string(by_expiry_.begin()->second));
    }
  }

  std::string prefix_;
  uint64_t next_ = 1;
  std::map<std::string, T> by_id_;
  /// Points into by_id_'s nodes, which never move.
  std::map<PairKey, const T*> by_pair_;
  std::set<std::pair<Timestamp, std::string>> by_expiry_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_GRANT_TABLE_H_
