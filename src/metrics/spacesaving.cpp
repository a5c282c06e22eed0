#include "metrics/spacesaving.hpp"

#include <algorithm>
#include <stdexcept>

namespace qlink::metrics {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("SpaceSaving capacity must be > 0");
  }
}

SpaceSaving::Entry* SpaceSaving::find(std::uint64_t key) {
  for (Entry& slot : slots_) {
    if (slot.key == key) return &slot;
  }
  return nullptr;
}

std::size_t SpaceSaving::min_slot() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    const Entry& s = slots_[i];
    const Entry& b = slots_[best];
    if (s.count < b.count || (s.count == b.count && s.key < b.key)) {
      best = i;
    }
  }
  return best;
}

void SpaceSaving::add(std::uint64_t key, std::uint64_t weight) {
  if (weight == 0) {
    return;
  }
  total_weight_ += weight;
  if (Entry* slot = find(key)) {
    slot->count += weight;
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back(Entry{key, weight, 0});
    return;
  }
  // Full: the new key takes over the minimum counter's slot and
  // inherits its count as the overestimation bound.
  Entry& min = slots_[min_slot()];
  const std::uint64_t floor = min.count;
  min = Entry{key, floor + weight, floor};
  ++evictions_;
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t k) const {
  std::vector<Entry> entries = slots_;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (entries.size() > k) {
    entries.resize(k);
  }
  return entries;
}

std::uint64_t SpaceSaving::count_bound(std::uint64_t key) const {
  for (const Entry& slot : slots_) {
    if (slot.key == key) return slot.count;
  }
  return slots_.empty() ? 0 : slots_[min_slot()].count;
}

void SpaceSaving::truncate_to_capacity() {
  while (slots_.size() > capacity_) {
    slots_[min_slot()] = slots_.back();
    slots_.pop_back();
    ++evictions_;
  }
}

void SpaceSaving::merge(const SpaceSaving& other) {
  for (const Entry& theirs : other.slots_) {
    if (Entry* slot = find(theirs.key)) {
      slot->count += theirs.count;
      slot->error += theirs.error;
    } else {
      slots_.push_back(theirs);
    }
  }
  total_weight_ += other.total_weight_;
  evictions_ += other.evictions_;
  truncate_to_capacity();
}

}  // namespace qlink::metrics
