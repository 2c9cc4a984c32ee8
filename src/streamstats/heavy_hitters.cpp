#include "streamstats/heavy_hitters.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace unisamp {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("capacity must be positive");
  counts_.reserve(capacity);
}

void SpaceSaving::recount_min() {
  min_ = std::numeric_limits<std::uint64_t>::max();
  at_min_ = 0;
  for (const auto& [id, cell] : counts_) {
    if (cell.count < min_) {
      min_ = cell.count;
      at_min_ = 1;
    } else if (cell.count == min_) {
      ++at_min_;
    }
  }
}

void SpaceSaving::raise(Cell& cell, std::uint64_t weight) {
  if (weight == 0) return;
  const bool was_min = cell.count == min_;
  cell.count += weight;
  if (was_min && --at_min_ == 0) recount_min();
}

void SpaceSaving::add(std::uint64_t item, std::uint64_t weight) {
  total_ += weight;
  const auto it = counts_.find(item);
  if (it != counts_.end()) {
    raise(it->second, weight);
    return;
  }
  if (counts_.size() < capacity_) {
    if (counts_.empty() || weight < min_) {
      min_ = weight;
      at_min_ = 1;
    } else if (weight == min_) {
      ++at_min_;
    }
    counts_.emplace(item, Cell{weight, 0});
    return;
  }
  // Evict the first entry at the minimum; the newcomer inherits its count as
  // over-estimate and takes over its node, still counted in at_min_ until
  // the weight lands.
  auto victim = counts_.begin();
  while (victim->second.count != min_) ++victim;
  auto node = counts_.extract(victim);
  node.key() = item;
  node.mapped().error = min_;
  raise(counts_.insert(std::move(node)).position->second, weight);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(counts_.size());
  for (const auto& [id, cell] : counts_)
    out.push_back(Entry{id, cell.count, cell.error});
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
  const auto it = counts_.find(item);
  if (it != counts_.end()) return it->second.count;
  return counts_.size() < capacity_ ? 0 : min_;
}

}  // namespace unisamp
