// Tests of the streaming-statistics substrates (Sec. II related-work
// toolbox): HyperLogLog, SpaceSaving, streaming entropy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/generators.hpp"
#include "streamstats/distinct.hpp"
#include "streamstats/entropy.hpp"
#include "streamstats/heavy_hitters.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

// --- HyperLogLog ------------------------------------------------------------

TEST(Hll, RejectsBadPrecision) {
  EXPECT_THROW(HyperLogLog(3, 1), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(19, 1), std::invalid_argument);
}

TEST(Hll, EmptyEstimatesZero) {
  HyperLogLog hll(12, 1);
  EXPECT_NEAR(hll.estimate(), 0.0, 1e-9);
}

TEST(Hll, SmallCardinalitiesViaLinearCounting) {
  HyperLogLog hll(12, 2);
  for (std::uint64_t i = 0; i < 100; ++i) hll.add(i * 7919);
  EXPECT_NEAR(hll.estimate(), 100.0, 5.0);
}

TEST(Hll, DuplicatesDoNotInflate) {
  HyperLogLog hll(12, 3);
  for (int rep = 0; rep < 1000; ++rep)
    for (std::uint64_t i = 0; i < 50; ++i) hll.add(i);
  EXPECT_NEAR(hll.estimate(), 50.0, 5.0);
}

class HllCardinalitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HllCardinalitySweep, WithinThreeStandardErrors) {
  const std::uint64_t n = GetParam();
  HyperLogLog hll(12, 4);
  for (std::uint64_t i = 0; i < n; ++i) hll.add(i);
  const double rel_err =
      std::fabs(hll.estimate() - static_cast<double>(n)) /
      static_cast<double>(n);
  EXPECT_LT(rel_err, 3.0 * hll.standard_error()) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllCardinalitySweep,
                         ::testing::Values(1000, 10000, 100000, 1000000));

TEST(Hll, MergeEqualsUnion) {
  HyperLogLog a(10, 5), b(10, 5);
  for (std::uint64_t i = 0; i < 5000; ++i) a.add(i);
  for (std::uint64_t i = 2500; i < 7500; ++i) b.add(i);
  a.merge(b);
  EXPECT_NEAR(a.estimate(), 7500.0, 7500.0 * 3.0 * a.standard_error());
}

// Test-only reference: the register update of HyperLogLog::add and the
// estimator summed with std::pow, as the library computed it before its
// table of powers of two.
double reference_hll_estimate(unsigned precision, std::uint64_t seed,
                              const std::vector<std::uint64_t>& items) {
  const std::uint64_t key = SplitMix64::mix(seed ^ 0x4C4C4853ULL);
  std::vector<std::uint8_t> registers(std::size_t{1} << precision, 0);
  for (const std::uint64_t item : items) {
    const std::uint64_t h = SplitMix64::mix(item ^ key);
    const std::size_t index = h >> (64 - precision);
    const std::uint64_t rest = h << precision;
    const std::uint8_t rho =
        rest == 0 ? static_cast<std::uint8_t>(64 - precision + 1)
                  : static_cast<std::uint8_t>(__builtin_clzll(rest) + 1);
    if (rho > registers[index]) registers[index] = rho;
  }
  const double m = static_cast<double>(registers.size());
  double alpha;
  if (registers.size() == 16)
    alpha = 0.673;
  else if (registers.size() == 32)
    alpha = 0.697;
  else if (registers.size() == 64)
    alpha = 0.709;
  else
    alpha = 0.7213 / (1.0 + 1.079 / m);
  double denom = 0.0;
  std::size_t zeros = 0;
  for (std::uint8_t r : registers) {
    denom += std::pow(2.0, -static_cast<double>(r));
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / denom;
  if (raw <= 2.5 * m && zeros > 0)
    return m * std::log(m / static_cast<double>(zeros));
  return raw;
}

TEST(Hll, EstimateBitIdenticalToPowSum) {
  for (int r = 0; r <= 64; ++r)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(std::ldexp(1.0, -r)),
              std::bit_cast<std::uint64_t>(std::pow(2.0, -r)))
        << "r=" << r;
  // Both branches (linear counting and raw) at every alpha case.
  for (const unsigned precision : {4u, 5u, 6u, 10u, 12u, 16u}) {
    for (const std::size_t n : {0, 7, 300, 5000, 200000}) {
      const std::uint64_t seed = precision * 1000 + n;
      HyperLogLog hll(precision, seed);
      std::vector<std::uint64_t> items;
      WeightedStreamGenerator gen(zipf_weights(n + 1, 0.9), seed);
      for (std::size_t i = 0; i < n; ++i) items.push_back(gen.next() * 7919);
      for (const std::uint64_t item : items) hll.add(item);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hll.estimate()),
                std::bit_cast<std::uint64_t>(
                    reference_hll_estimate(precision, seed, items)))
          << "precision=" << precision << " n=" << n;
    }
  }
}

TEST(Hll, ResetEqualsFreshSketch) {
  HyperLogLog reused(12, 1);
  for (std::uint64_t id = 0; id < 50000; ++id) reused.add(id * 31);
  reused.reset(9);
  HyperLogLog fresh(12, 9);
  for (std::uint64_t id = 0; id < 3000; ++id) {
    reused.add(id);
    fresh.add(id);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.estimate()),
            std::bit_cast<std::uint64_t>(fresh.estimate()));
  EXPECT_NO_THROW(fresh.merge(reused));  // same key after the reset
}

TEST(Hll, MergeRejectsIncompatible) {
  HyperLogLog a(10, 5), b(11, 5), c(10, 6);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

// --- SpaceSaving ------------------------------------------------------------

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving(0), std::invalid_argument);
}

TEST(SpaceSaving, RejectsCapacityBeyondSlotIndices) {
  // Slots are linked by 32-bit indices; rejected before any allocation.
  EXPECT_THROW(SpaceSaving(std::size_t{1} << 32), std::invalid_argument);
}

TEST(SpaceSaving, ExactWhenUnderCapacity) {
  SpaceSaving ss(10);
  ss.add(1, 5);
  ss.add(2, 3);
  ss.add(1, 2);
  EXPECT_EQ(ss.estimate(1), 7u);
  EXPECT_EQ(ss.estimate(2), 3u);
  EXPECT_EQ(ss.estimate(99), 0u);
  EXPECT_EQ(ss.stream_length(), 10u);
}

TEST(SpaceSaving, NeverUnderestimatesTrackedIds) {
  SpaceSaving ss(20);
  std::map<std::uint64_t, std::uint64_t> truth;
  WeightedStreamGenerator gen(zipf_weights(200, 1.3), 7);
  for (int i = 0; i < 50000; ++i) {
    const auto id = gen.next();
    ss.add(id);
    ++truth[id];
  }
  for (const auto& e : ss.entries()) {
    EXPECT_GE(e.count, truth[e.id]) << "id " << e.id;
    EXPECT_GE(truth[e.id] + e.error, e.count) << "id " << e.id;
  }
}

TEST(SpaceSaving, FindsAllTrueHeavyHitters) {
  // Guarantee: every id with frequency > N/capacity is tracked.
  SpaceSaving ss(10);
  // id 1: 40% of stream, id 2: 20%, rest spread thin.
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 < 4) ss.add(1);
    else if (i % 10 < 6) ss.add(2);
    else ss.add(1000 + (i * 31) % 500);
  }
  std::set<std::uint64_t> tracked;
  for (const auto& e : ss.entries()) tracked.insert(e.id);
  EXPECT_TRUE(tracked.contains(1));
  EXPECT_TRUE(tracked.contains(2));
  const auto hh = ss.heavy_hitters(0.15);
  ASSERT_GE(hh.size(), 2u);
  EXPECT_EQ(hh[0].id, 1u);
  EXPECT_EQ(hh[1].id, 2u);
}

TEST(SpaceSaving, EntriesSortedDescending) {
  SpaceSaving ss(5);
  for (std::uint64_t id = 0; id < 5; ++id) ss.add(id, 10 * (id + 1));
  const auto entries = ss.entries();
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_GE(entries[i - 1].count, entries[i].count);
}

TEST(SpaceSaving, EvictionInheritsError) {
  SpaceSaving ss(2);
  ss.add(1, 100);
  ss.add(2, 50);
  ss.add(3);  // evicts id 2 (min), inherits count 50 as error
  const auto entries = ss.entries();
  bool found = false;
  for (const auto& e : entries) {
    if (e.id == 3) {
      EXPECT_EQ(e.count, 51u);
      EXPECT_EQ(e.error, 50u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpaceSaving, UntrackedEstimateBoundedByMin) {
  SpaceSaving ss(2);
  ss.add(1, 100);
  ss.add(2, 50);
  EXPECT_EQ(ss.estimate(999), 50u);
}

// Test-only reference: SpaceSaving as it was before min tracking and node
// reuse (full strict-< scan for the victim, erase + emplace), the oracle
// for the library's eviction contract.
class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(std::size_t capacity) : capacity_(capacity) {
    counts_.reserve(capacity);
  }

  void add(std::uint64_t item, std::uint64_t weight = 1) {
    total_ += weight;
    const auto it = counts_.find(item);
    if (it != counts_.end()) {
      it->second.count += weight;
      return;
    }
    if (counts_.size() < capacity_) {
      counts_.emplace(item, Cell{weight, 0});
      return;
    }
    // Evict the minimum; the newcomer inherits its count as over-estimate.
    auto victim = counts_.begin();
    for (auto i = counts_.begin(); i != counts_.end(); ++i)
      if (i->second.count < victim->second.count) victim = i;
    const Cell inherited{victim->second.count + weight, victim->second.count};
    counts_.erase(victim);
    counts_.emplace(item, inherited);
  }

  std::vector<SpaceSaving::Entry> entries() const {
    std::vector<SpaceSaving::Entry> out;
    for (const auto& [id, cell] : counts_)
      out.push_back(SpaceSaving::Entry{id, cell.count, cell.error});
    std::sort(out.begin(), out.end(),
              [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
                return a.count > b.count || (a.count == b.count && a.id < b.id);
              });
    return out;
  }

  std::uint64_t estimate(std::uint64_t item) const {
    const auto it = counts_.find(item);
    if (it != counts_.end()) return it->second.count;
    if (counts_.size() < capacity_) return 0;
    std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [id, cell] : counts_) m = std::min(m, cell.count);
    return m;
  }

  std::uint64_t stream_length() const { return total_; }
  std::size_t tracked() const { return counts_.size(); }

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Cell> counts_;
  std::uint64_t total_ = 0;
};

::testing::AssertionResult SameState(const SpaceSaving& ss,
                                     const ReferenceSpaceSaving& ref,
                                     const std::vector<std::uint64_t>& probes) {
  if (ss.stream_length() != ref.stream_length())
    return ::testing::AssertionFailure() << "stream_length differs";
  if (ss.tracked() != ref.tracked())
    return ::testing::AssertionFailure() << "tracked differs";
  const auto a = ss.entries();
  const auto b = ref.entries();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].count != b[i].count ||
        a[i].error != b[i].error)
      return ::testing::AssertionFailure()
             << "entry " << i << ": id " << a[i].id << " vs " << b[i].id
             << ", count " << a[i].count << " vs " << b[i].count
             << ", error " << a[i].error << " vs " << b[i].error;
  for (const std::uint64_t id : probes)
    if (ss.estimate(id) != ref.estimate(id))
      return ::testing::AssertionFailure() << "estimate(" << id << ") differs";
  return ::testing::AssertionSuccess();
}

// Weights 0, 1 and > 1: mostly 1 (the detector's case, full of ties at
// the minimum), some zero-weight adds and some heavy ones.
std::uint64_t fuzz_weight(Xoshiro256& rng, bool unit_only) {
  if (unit_only) return 1;
  const std::uint64_t roll = rng.next_below(10);
  if (roll == 0) return 0;
  if (roll < 7) return 1;
  return 2 + rng.next_below(20);
}

constexpr std::size_t kFuzzCapacities[] = {1, 2, 3, 5, 13, 64, 256, 300};

TEST(SpaceSavingDifferential, MatchesReferenceAfterEveryAdd) {
  for (const std::size_t capacity : kFuzzCapacities) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const bool unit_only = seed % 2 == 0;
      const std::size_t domain = capacity * (seed <= 2 ? 2 : 8) + 3;
      WeightedStreamGenerator gen(zipf_weights(domain, 0.6 + 0.2 * seed),
                                  seed * 101 + capacity);
      Xoshiro256 rng(seed * 7 + capacity);
      SpaceSaving ss(capacity);
      ReferenceSpaceSaving ref(capacity);
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t id = gen.next();
        const std::uint64_t w = fuzz_weight(rng, unit_only);
        ss.add(id, w);
        ref.add(id, w);
        // The added id, a random domain id and one never added.
        const std::vector<std::uint64_t> probes = {id, rng.next_below(domain),
                                                   domain + 17};
        ASSERT_TRUE(SameState(ss, ref, probes))
            << "capacity=" << capacity << " seed=" << seed << " add " << i;
      }
    }
  }
}

TEST(SpaceSavingDifferential, MatchesReferenceAtEveryWindowEnd) {
  constexpr std::size_t kWindow = 10000;
  for (const std::size_t capacity : kFuzzCapacities) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const bool unit_only = seed == 1;
      const std::size_t domain = 4000;
      WeightedStreamGenerator gen(zipf_weights(domain, 0.8 + 0.3 * seed),
                                  seed * 977 + capacity);
      Xoshiro256 rng(seed * 13 + capacity);
      SpaceSaving ss(capacity);
      ReferenceSpaceSaving ref(capacity);
      std::vector<std::uint64_t> probes(domain + 1);
      for (std::uint64_t id = 0; id <= domain; ++id) probes[id] = id;
      for (std::size_t i = 1; i <= 5 * kWindow; ++i) {
        const std::uint64_t id = gen.next();
        const std::uint64_t w = fuzz_weight(rng, unit_only);
        ss.add(id, w);
        ref.add(id, w);
        if (i % kWindow != 0) continue;
        ASSERT_TRUE(SameState(ss, ref, probes))
            << "capacity=" << capacity << " seed=" << seed << " window "
            << i / kWindow;
      }
    }
  }
}

// Deterministic cases for the resumed victim walk.  At capacity 5 the
// table has B = 5 buckets, so ids 0..4 fill buckets 0..4, each at the front
// of the iteration order: the order is 4, 3, 2, 1, 0.
using Adds = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

void ExpectSameAfterEachAdd(std::size_t capacity, const Adds& adds) {
  SpaceSaving ss(capacity);
  ReferenceSpaceSaving ref(capacity);
  std::vector<std::uint64_t> probes;
  for (const auto& [id, w] : adds) probes.push_back(id);
  for (std::size_t i = 0; i < adds.size(); ++i) {
    ss.add(adds[i].first, adds[i].second);
    ref.add(adds[i].first, adds[i].second);
    ASSERT_TRUE(SameState(ss, ref, probes)) << "add " << i;
  }
}

Adds FillFiveThenRaise(std::initializer_list<std::uint64_t> raised) {
  Adds adds = {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}};
  for (const std::uint64_t id : raised) adds.push_back({id, 1});
  return adds;
}

TEST(SpaceSavingCursor, FiveBucketsAtCapacityFive) {
  std::unordered_map<std::uint64_t, int> map;
  map.reserve(5);
  ASSERT_EQ(map.bucket_count(), 5u);  // the premise of the cases below
}

TEST(SpaceSavingCursor, VictimIsLastInIterationOrder) {
  // Only id 0, the last entry, is at the minimum; the walk ends on it.
  // Then a weight-0 newcomer evicts the last entry again.
  Adds adds = FillFiveThenRaise({4, 3, 2, 1});
  adds.insert(adds.end(), {{10, 1}, {11, 1}, {12, 1}, {13, 1}, {14, 1}});
  adds.insert(adds.end(), {{4, 1}, {3, 1}, {2, 1}, {1, 1}, {20, 0}, {21, 1}});
  ExpectSameAfterEachAdd(5, adds);
}

TEST(SpaceSavingCursor, WeightZeroMissAfterEviction) {
  // 10 evicts 4 and the walk stops at 3; 9 (weight 0) evicts 3 and enters
  // at the minimum at the front, before where the walk stopped, so 8 must
  // evict 9, not 2.
  Adds adds = FillFiveThenRaise({});
  adds.insert(adds.end(), {{10, 1}, {9, 0}, {8, 1}, {7, 1}, {6, 0}, {5, 1}});
  ExpectSameAfterEachAdd(5, adds);
}

TEST(SpaceSavingCursor, RecountAfterEviction) {
  // Only id 2 is at the minimum; 10 evicts it mid-order and rises with the
  // rest, so the minimum is recounted and 12 must evict the front (4), not
  // the entry after the old victim (1).
  Adds adds = FillFiveThenRaise({4, 3, 1, 0});
  adds.insert(adds.end(), {{10, 1}, {12, 1}, {13, 1}, {14, 1}, {15, 1}});
  ExpectSameAfterEachAdd(5, adds);
}

TEST(SpaceSavingCursor, ClearEqualsFreshTable) {
  SpaceSaving ss(13);
  WeightedStreamGenerator gen(zipf_weights(200, 0.9), 3);
  for (int i = 0; i < 2000; ++i) ss.add(gen.next());
  ss.clear();
  EXPECT_EQ(ss.tracked(), 0u);
  EXPECT_EQ(ss.stream_length(), 0u);
  ReferenceSpaceSaving ref(13);
  std::vector<std::uint64_t> probes(201);
  for (std::uint64_t id = 0; id <= 200; ++id) probes[id] = id;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t id = gen.next();
    ss.add(id);
    ref.add(id);
    ASSERT_TRUE(SameState(ss, ref, probes)) << "add " << i;
  }
}

TEST(SpaceSavingCursor, CapacityOne) {
  ExpectSameAfterEachAdd(1, {{5, 1}, {5, 2}, {7, 1}, {7, 0}, {8, 0},
                             {9, 3}, {9, 1}, {4, 0}, {4, 1}, {6, 2}});
}

// --- StreamingEntropy --------------------------------------------------------

TEST(StreamingEntropy, UniformStreamNearMaxEntropy) {
  StreamingEntropy se(32, 12, 1);
  for (int rep = 0; rep < 100; ++rep)
    for (std::uint64_t id = 0; id < 500; ++id) se.add(id);
  EXPECT_NEAR(se.estimate(), std::log(500.0), 0.15);
  EXPECT_GT(se.normalized_estimate(), 0.9);
}

TEST(StreamingEntropy, PeakedStreamLowEntropy) {
  StreamingEntropy se(32, 12, 2);
  for (int i = 0; i < 50000; ++i) se.add(7);
  for (std::uint64_t id = 0; id < 100; ++id) se.add(1000 + id);
  // True entropy ~ 0.02; the estimator must report well below uniform.
  EXPECT_LT(se.estimate(), 0.5);
  EXPECT_LT(se.normalized_estimate(), 0.2);
}

TEST(StreamingEntropy, TracksKnownTwoLevelDistribution) {
  // Half the mass on one id, half uniform over 999 others:
  // H = 0.5 ln 2 + 0.5 ln(2*999) = ln 2 + 0.5 ln 999.
  StreamingEntropy se(16, 12, 3);
  const std::size_t n = 1000;
  for (int i = 0; i < 50000; ++i) se.add(0);
  for (int rep = 0; rep < 50; ++rep)
    for (std::uint64_t id = 1; id < n; ++id) se.add(id);
  const double expected = std::log(2.0) + 0.5 * std::log(999.0);
  EXPECT_NEAR(se.estimate(), expected, 0.25);
}

TEST(StreamingEntropy, EmptyStreamZero) {
  StreamingEntropy se(8, 8, 4);
  EXPECT_DOUBLE_EQ(se.estimate(), 0.0);
}

TEST(StreamingEntropy, UpperBoundsPluginEntropyOnSkewedStreams) {
  // The uniform-tail model can only ADD entropy relative to the truth.
  WeightedStreamGenerator gen(zipf_weights(2000, 1.1), 9);
  StreamingEntropy se(64, 12, 5);
  std::map<std::uint64_t, double> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto id = gen.next();
    se.add(id);
    counts[id] += 1.0;
  }
  double plugin = 0.0;
  for (const auto& [id, c] : counts) {
    const double p = c / kN;
    plugin -= p * std::log(p);
  }
  EXPECT_GE(se.estimate(), plugin - 0.05);
}

}  // namespace
}  // namespace unisamp
