#include "core/record_table.h"

#include <algorithm>
#include <functional>

namespace medvault::core {

size_t RecordTable::Probe(std::string_view id) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(id) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == kNone || ids_[slots_[i]] == id) return i;
  }
}

uint32_t RecordTable::Find(std::string_view id) const {
  return slots_.empty() ? kNone : slots_[Probe(id)];
}

uint32_t RecordTable::Intern(std::string_view id) {
  if ((ids_.size() + 1) * 4 > slots_.size() * 3) {
    slots_.assign(std::max<size_t>(16, slots_.size() * 2), kNone);
    for (uint32_t ordinal = 0; ordinal < size(); ++ordinal) {
      slots_[Probe(ids_[ordinal])] = ordinal;
    }
  }
  uint32_t& slot = slots_[Probe(id)];
  if (slot == kNone) {
    slot = size();
    ids_.emplace_back(id);
  }
  return slot;
}

void RecordTable::SortById(std::vector<uint32_t>* ordinals) const {
  std::sort(ordinals->begin(), ordinals->end(),
            [this](uint32_t a, uint32_t b) { return ids_[a] < ids_[b]; });
}

}  // namespace medvault::core
