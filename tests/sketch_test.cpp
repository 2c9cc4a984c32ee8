// Tests of Algorithm 2 (Count-Min) and the conservative-update ablation.
#include "sketch/count_min.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "stream/generators.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

TEST(CountMinParams, FromErrorMatchesPaperFormulas) {
  const auto p = CountMinParams::from_error(0.1, 0.01, 1);
  EXPECT_EQ(p.width, static_cast<std::size_t>(std::ceil(std::exp(1.0) / 0.1)));
  EXPECT_EQ(p.depth, static_cast<std::size_t>(std::ceil(std::log2(100.0))));
  EXPECT_LE(p.epsilon(), 0.1 + 1e-9);
  EXPECT_LE(p.delta(), 0.01 + 1e-9);
}

TEST(CountMinParams, RejectsBadInputs) {
  EXPECT_THROW(CountMinParams::from_error(0.0, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(CountMinParams::from_error(0.1, 1.5, 1), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CountMinParams::from_error(nan, 0.01, 1), std::invalid_argument);
  EXPECT_THROW(CountMinParams::from_error(0.1, nan, 1), std::invalid_argument);
  // 1/delta overflows to +inf, and a tiny epsilon asks for ~2.7e300
  // counters: neither may reach the size_t conversion.
  EXPECT_THROW(CountMinParams::from_error(0.1, 5e-324, 1),
               std::invalid_argument);
  EXPECT_THROW(CountMinParams::from_error(1e-300, 0.01, 1),
               std::invalid_argument);
  EXPECT_THROW(CountMinParams::from_dimensions(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(CountMinParams::from_dimensions(5, 0, 1), std::invalid_argument);
}

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch sketch(CountMinParams::from_dimensions(20, 4, 7));
  std::map<std::uint64_t, std::uint64_t> truth;
  Xoshiro256 rng(13);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t id = rng.next_below(500);
    sketch.update(id);
    ++truth[id];
  }
  for (const auto& [id, f] : truth) EXPECT_GE(sketch.estimate(id), f);
}

TEST(CountMin, ExactWhenNoCollisions) {
  // Width far above the number of distinct ids: collisions are unlikely in
  // every row simultaneously, so the min is exact for most ids; assert the
  // aggregate error is tiny.
  CountMinSketch sketch(CountMinParams::from_dimensions(4096, 6, 11));
  for (std::uint64_t id = 0; id < 50; ++id)
    for (std::uint64_t rep = 0; rep <= id; ++rep) sketch.update(id);
  for (std::uint64_t id = 0; id < 50; ++id)
    EXPECT_EQ(sketch.estimate(id), id + 1);
}

TEST(CountMin, EpsilonDeltaGuarantee) {
  // P{ f-hat > f + eps*m } <= delta.  Check the fraction of violating ids.
  const double eps = 0.05, delta = 0.05;
  CountMinSketch sketch(CountMinParams::from_error(eps, delta, 99));
  const std::size_t n = 2000;
  auto weights = zipf_weights(n, 1.2);
  WeightedStreamGenerator gen(weights, 5);
  std::map<std::uint64_t, std::uint64_t> truth;
  constexpr std::uint64_t m = 100000;
  for (std::uint64_t i = 0; i < m; ++i) {
    const NodeId id = gen.next();
    sketch.update(id);
    ++truth[id];
  }
  std::size_t violations = 0;
  for (const auto& [id, f] : truth)
    if (static_cast<double>(sketch.estimate(id)) >
        static_cast<double>(f) + eps * static_cast<double>(m))
      ++violations;
  EXPECT_LE(static_cast<double>(violations) / truth.size(), delta);
}

TEST(CountMin, MinCounterMatchesBruteForce) {
  CountMinSketch sketch(CountMinParams::from_dimensions(16, 3, 21));
  Xoshiro256 rng(17);
  for (int i = 0; i < 5000; ++i) {
    sketch.update(rng.next_below(100));
    std::uint64_t brute = UINT64_MAX;
    for (std::size_t r = 0; r < sketch.depth(); ++r)
      for (std::size_t c = 0; c < sketch.width(); ++c)
        brute = std::min(brute, sketch.counter_at(r, c));
    ASSERT_EQ(sketch.min_counter(), brute) << "after " << i + 1 << " updates";
  }
}

TEST(CountMin, MinCounterStartsAtZeroAndGrows) {
  CountMinSketch sketch(CountMinParams::from_dimensions(4, 2, 31));
  EXPECT_EQ(sketch.min_counter(), 0u);
  // Hammer a single id: min stays 0 (untouched counters exist).
  for (int i = 0; i < 1000; ++i) sketch.update(42);
  EXPECT_EQ(sketch.min_counter(), 0u);
  // Flood with many distinct ids: eventually every counter is hit.
  for (std::uint64_t id = 0; id < 200; ++id) sketch.update(1000 + id);
  EXPECT_GT(sketch.min_counter(), 0u);
}

TEST(CountMin, TotalCountTracksUpdates) {
  CountMinSketch sketch(CountMinParams::from_dimensions(8, 2, 3));
  sketch.update(1);
  sketch.update(2, 10);
  EXPECT_EQ(sketch.total_count(), 11u);
}

TEST(CountMin, WeightedUpdate) {
  CountMinSketch sketch(CountMinParams::from_dimensions(64, 4, 5));
  sketch.update(7, 100);
  EXPECT_GE(sketch.estimate(7), 100u);
}

TEST(CountMin, MergeEqualsConcatenatedStream) {
  const auto params = CountMinParams::from_dimensions(32, 4, 8);
  CountMinSketch a(params), b(params), whole(params);
  Xoshiro256 rng(9);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t id = rng.next_below(50);
    (i % 2 == 0 ? a : b).update(id);
    whole.update(id);
  }
  a.merge(b);
  for (std::uint64_t id = 0; id < 50; ++id)
    EXPECT_EQ(a.estimate(id), whole.estimate(id));
  EXPECT_EQ(a.min_counter(), whole.min_counter());
  EXPECT_EQ(a.total_count(), whole.total_count());
}

TEST(CountMin, MergeRejectsShapeMismatch) {
  CountMinSketch a(CountMinParams::from_dimensions(8, 2, 1));
  CountMinSketch b(CountMinParams::from_dimensions(16, 2, 1));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// Parameterized sweep: the estimate invariant (never underestimate) and
// min_counter consistency hold across sketch shapes.
class SketchShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SketchShapeTest, InvariantsHold) {
  const auto [k, s] = GetParam();
  CountMinSketch sketch(CountMinParams::from_dimensions(k, s, 77));
  std::map<std::uint64_t, std::uint64_t> truth;
  Xoshiro256 rng(k * 1000 + s);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t id = rng.next_below(300);
    sketch.update(id);
    ++truth[id];
  }
  for (const auto& [id, f] : truth) EXPECT_GE(sketch.estimate(id), f);
  // min over matrix <= estimate of any id.
  for (const auto& [id, f] : truth)
    EXPECT_LE(sketch.min_counter(), sketch.estimate(id));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SketchShapeTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{10, 5},
                      std::pair<std::size_t, std::size_t>{15, 17},
                      std::pair<std::size_t, std::size_t>{50, 10},
                      std::pair<std::size_t, std::size_t>{250, 10},
                      std::pair<std::size_t, std::size_t>{3, 40}));

TEST(ConservativeCountMin, NeverUnderestimatesAndTighterThanPlain) {
  const auto params = CountMinParams::from_dimensions(12, 3, 55);
  CountMinSketch plain(params);
  ConservativeCountMinSketch cons(params);
  std::map<std::uint64_t, std::uint64_t> truth;
  Xoshiro256 rng(2);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t id = rng.next_below(200);
    plain.update(id);
    cons.update(id);
    ++truth[id];
  }
  for (const auto& [id, f] : truth) {
    EXPECT_GE(cons.estimate(id), f);
    EXPECT_LE(cons.estimate(id), plain.estimate(id));
  }
}

}  // namespace
}  // namespace unisamp
