// Streaming frequent-elements detection — the [1, 8] substrate of the
// paper's related work, implemented as the SpaceSaving algorithm (Metwally
// et al.), the practical successor of Misra-Gries.
//
// Maintains `capacity` (id, count, overestimate) triples.  Guarantees:
//  * every id with true frequency > N/capacity is present,
//  * reported count over-estimates truth by at most `error()` (the count
//    the evicted minimum had when the id entered).
// Used by the attack detector: the paper's attacks are precisely
// over-represented ids, i.e. heavy hitters of the input stream.
//
// Eviction contract: a miss on a full table evicts the FIRST entry holding
// the minimum count in the container's iteration order, and the newcomer
// takes over the victim's node, which the container relinks exactly where
// a fresh insert would go (differential-tested against erase + emplace).
// Which id is evicted therefore depends on that order, and the detector's
// window reports depend on which ids are evicted — a heap or a
// smallest-id tie-break would change them.
//
// Cost per add: a hit is one hash lookup.  A miss walks the entries only
// up to the first one at the tracked minimum `min_`, and relinks the
// victim's node (no allocation).  A full O(capacity) recount of the
// minimum runs only when the last entry at `min_` rises above it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace unisamp {

class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(std::uint64_t item, std::uint64_t weight = 1);

  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t count = 0;      ///< upper bound on the true frequency
    std::uint64_t error = 0;      ///< max over-estimate of `count`
  };

  /// All tracked entries, sorted by descending count.
  std::vector<Entry> entries() const;

  /// Ids whose GUARANTEED frequency (count - error) exceeds
  /// `threshold_fraction` of the stream length.
  std::vector<Entry> heavy_hitters(double threshold_fraction) const;

  /// Upper-bound estimate for one id (count if tracked, else the minimum
  /// tracked count, which bounds any untracked id's frequency).  O(1).
  std::uint64_t estimate(std::uint64_t item) const;

  std::uint64_t stream_length() const { return total_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t tracked() const { return counts_.size(); }

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  /// Adds `weight` to a tracked cell, keeping min_/at_min_ current.
  void raise(Cell& cell, std::uint64_t weight);
  /// Recomputes min_ and at_min_ by a full scan.
  void recount_min();

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Cell> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;     ///< smallest tracked count (0 when empty)
  std::size_t at_min_ = 0;    ///< how many tracked entries hold min_
};

}  // namespace unisamp
