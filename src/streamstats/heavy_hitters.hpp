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
// the minimum count in iteration order, and the newcomer takes the
// victim's place in the table.  The iteration order is the one libstdc++'s
// std::unordered_map gives, after reserve(capacity), to erase + emplace:
//  * B buckets, where B is the bucket count that reserve(capacity) picks
//    (67 for 64), derived once at construction; an id's bucket is id % B;
//  * the entries of a bucket are adjacent in the order, and a newcomer is
//    linked just before the first entry of its bucket, or at the front of
//    the order when its bucket is empty;
//  * removing an entry leaves the order of the others as it was.
// Which id is evicted therefore depends on that order, and the detector's
// window reports depend on which ids are evicted — a heap or a
// smallest-id tie-break would change them.  The differential tests check
// the contract against a std::unordered_map oracle.
//
// Cost per add: a lookup walks the id's bucket (about one entry) after one
// `%`.  A miss finds its victim in amortized O(1): the walk resumes where
// the last one stopped, because between changes of the minimum `min_`
// entries only rise or leave, and a newcomer enters above `min_`.  A full
// O(capacity) recount of the minimum runs only when the last entry at
// `min_` rises above it.  Nothing is allocated after construction.
#pragma once

#include <cstdint>
#include <vector>

namespace unisamp {

class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(std::uint64_t item, std::uint64_t weight = 1);

  /// Empties the table, as if newly constructed; allocates nothing.
  void clear();

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
  std::size_t tracked() const { return slots_.size(); }

 private:
  using Index = std::uint32_t;
  static constexpr Index kNone = ~Index{0};

  /// One tracked entry, linked into the iteration order.
  struct Slot {
    std::uint64_t id = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint64_t bucket = 0;  ///< id % B
    Index next = kNone;
    Index prev = kNone;
  };

  /// The slot tracking `item` in bucket `bucket`, or kNone.
  Index find(std::uint64_t item, std::uint64_t bucket) const;
  /// Links slot `s` into the iteration order by the contract's rule.
  void link(Index s);
  /// Removes slot `s` from the iteration order.
  void unlink(Index s);
  /// Adds `weight` to a tracked slot, keeping min_/at_min_ current.
  void raise(Slot& slot, std::uint64_t weight);
  /// Recomputes min_ and at_min_ by a full scan.
  void recount_min();

  std::size_t capacity_;
  std::vector<Slot> slots_;          ///< reserved to capacity_
  std::vector<Index> bucket_first_;  ///< B entries: first slot of a bucket
  Index head_ = kNone;               ///< first slot in iteration order
  /// Where the next victim walk starts: every slot before it in iteration
  /// order counts more than min_, and while at_min_ >= 1 a slot at min_
  /// lies at or after it.
  Index cursor_ = kNone;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;     ///< smallest tracked count (0 when empty)
  std::size_t at_min_ = 0;    ///< how many tracked entries hold min_
};

}  // namespace unisamp
