#include "streamstats/heavy_hitters.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace unisamp {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("capacity must be positive");
  if (capacity >= kNone) throw std::invalid_argument("capacity too large");
  slots_.reserve(capacity);
  // The contract's B: the bucket count reserve(capacity) gives the map
  // whose iteration order the table reproduces.
  std::unordered_map<std::uint64_t, Entry> reference;
  reference.reserve(capacity);
  bucket_first_.assign(reference.bucket_count(), kNone);
}

void SpaceSaving::clear() {
  slots_.clear();
  std::fill(bucket_first_.begin(), bucket_first_.end(), kNone);
  head_ = cursor_ = kNone;
  total_ = min_ = 0;
  at_min_ = 0;
}

SpaceSaving::Index SpaceSaving::find(std::uint64_t item,
                                     std::uint64_t bucket) const {
  for (Index s = bucket_first_[bucket];
       s != kNone && slots_[s].bucket == bucket; s = slots_[s].next)
    if (slots_[s].id == item) return s;
  return kNone;
}

void SpaceSaving::link(Index s) {
  Slot& slot = slots_[s];
  Index& first = bucket_first_[slot.bucket];
  slot.next = first != kNone ? first : head_;
  slot.prev = slot.next != kNone ? slots_[slot.next].prev : kNone;
  if (slot.prev != kNone)
    slots_[slot.prev].next = s;
  else
    head_ = s;
  if (slot.next != kNone) slots_[slot.next].prev = s;
  first = s;
}

void SpaceSaving::unlink(Index s) {
  const Slot& slot = slots_[s];
  Index& first = bucket_first_[slot.bucket];
  if (first == s)
    first = slot.next != kNone && slots_[slot.next].bucket == slot.bucket
                ? slot.next
                : kNone;
  if (slot.prev != kNone)
    slots_[slot.prev].next = slot.next;
  else
    head_ = slot.next;
  if (slot.next != kNone) slots_[slot.next].prev = slot.prev;
}

void SpaceSaving::recount_min() {
  min_ = std::numeric_limits<std::uint64_t>::max();
  at_min_ = 0;
  for (const Slot& slot : slots_) {
    if (slot.count < min_) {
      min_ = slot.count;
      at_min_ = 1;
    } else if (slot.count == min_) {
      ++at_min_;
    }
  }
  cursor_ = head_;
}

void SpaceSaving::raise(Slot& slot, std::uint64_t weight) {
  if (weight == 0) return;
  const bool was_min = slot.count == min_;
  slot.count += weight;
  if (was_min && --at_min_ == 0) recount_min();
}

void SpaceSaving::add(std::uint64_t item, std::uint64_t weight) {
  total_ += weight;
  const std::uint64_t bucket = item % bucket_first_.size();
  if (const Index s = find(item, bucket); s != kNone) {
    raise(slots_[s], weight);
    return;
  }
  if (slots_.size() < capacity_) {
    if (slots_.empty() || weight < min_) {
      min_ = weight;
      at_min_ = 1;
    } else if (weight == min_) {
      ++at_min_;
    }
    slots_.push_back(Slot{item, weight, 0, bucket});
    link(static_cast<Index>(slots_.size() - 1));
    // An entry at the minimum may have landed before the cursor.
    if (weight == min_) cursor_ = head_;
    return;
  }
  // Evict the first entry at the minimum, walking on from the cursor.  The
  // newcomer inherits its count as over-estimate and takes over its slot,
  // still counted in at_min_ until the weight lands.
  Index victim = cursor_;
  assert(at_min_ >= 1 && victim != kNone);
  while (slots_[victim].count != min_) {
    victim = slots_[victim].next;
    assert(victim != kNone);
  }
  cursor_ = slots_[victim].next;
  unlink(victim);
  Slot& slot = slots_[victim];
  slot.id = item;
  slot.error = min_;
  slot.bucket = bucket;
  link(victim);
  // A weight-0 newcomer stays at min_ and may sit before the cursor.
  if (weight == 0) cursor_ = head_;
  raise(slot, weight);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_)
    out.push_back(Entry{slot.id, slot.count, slot.error});
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count > b.count || (a.count == b.count && a.id < b.id);
  });
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::heavy_hitters(
    double threshold_fraction) const {
  const double bar = threshold_fraction * static_cast<double>(total_);
  std::vector<Entry> out;
  for (const Entry& e : entries())
    if (static_cast<double>(e.count - e.error) > bar) out.push_back(e);
  return out;
}

std::uint64_t SpaceSaving::estimate(std::uint64_t item) const {
  const Index s = find(item, item % bucket_first_.size());
  if (s != kNone) return slots_[s].count;
  return slots_.size() < capacity_ ? 0 : min_;
}

}  // namespace unisamp
