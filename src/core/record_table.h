#ifndef MEDVAULT_CORE_RECORD_TABLE_H_
#define MEDVAULT_CORE_RECORD_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace medvault::core {

/// Interns ids to dense 32-bit ordinals: 0, 1, 2, ... in the order the
/// ids are first seen. A shard keeps one table of record ids; the key
/// store, version catalog, custody chains, audit back-pointers and the
/// vault's metas each hold a fixed-width slot per ordinal instead of a
/// map keyed by the id, so each id is held once. The vault interns its
/// patient ids and retention-policy names in two more tables.
///
/// Any string maps, foreign-prefix ids included. Ordinals are never
/// removed or reused, so a slot indexed by one stays valid, and a
/// replay of the same logs in the same order rebuilds the same pairs.
///
/// Thread safety: none of its own. The owning vault interns only under
/// its exclusive lock or while it opens; lookups run under its shared
/// lock.
class RecordTable {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// The ordinal of `id`, added if the table does not hold it yet.
  uint32_t Intern(std::string_view id);

  /// The ordinal of `id`, or kNone.
  uint32_t Find(std::string_view id) const;

  /// The id of `ordinal` (< size()). The reference stays valid for the
  /// table's life.
  const std::string& id(uint32_t ordinal) const { return ids_[ordinal]; }

  uint32_t size() const { return static_cast<uint32_t>(ids_.size()); }

  /// Sorts `ordinals` by their ids, byte-wise: the order of a
  /// std::map keyed by the ids ("r-10" before "r-9").
  void SortById(std::vector<uint32_t>* ordinals) const;

  /// The ordinals below `end` for which `keep` holds, sorted by id.
  template <typename Keep>
  std::vector<uint32_t> ById(size_t end, Keep keep) const {
    std::vector<uint32_t> ordinals;
    for (uint32_t r = 0; r < end; ++r) {
      if (keep(r)) ordinals.push_back(r);
    }
    SortById(&ordinals);
    return ordinals;
  }

 private:
  /// The slot holding `id`, or the empty slot where it would go.
  /// Requires a non-empty slot array with at least one empty slot.
  size_t Probe(std::string_view id) const;

  std::deque<std::string> ids_;  ///< by ordinal; a deque keeps no slack
  /// Open addressing with linear probing: ordinals, kNone when empty;
  /// a power-of-two size, at most three quarters full.
  std::vector<uint32_t> slots_;
};

/// The slot of `ordinal` in a per-ordinal array, which grows to hold it
/// with `fill`.
template <typename T>
T& SlotAt(std::deque<T>* slots, uint32_t ordinal, const T& fill = T()) {
  if (ordinal >= slots->size()) slots->resize(ordinal + 1, fill);
  return (*slots)[ordinal];
}

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_RECORD_TABLE_H_
