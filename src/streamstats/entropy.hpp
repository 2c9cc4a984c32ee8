// Streaming entropy estimation — the [7, 18] substrate of the paper's
// related work, in the decomposition practical systems use: heavy hitters
// tracked exactly-ish (SpaceSaving) plus a distinct-count-based model of
// the tail.
//
// For a stream of length N with tracked heavy mass and D-hat distinct ids
// overall (HyperLogLog), the estimator treats the untracked residual mass
// as spread over the untracked ids.  This yields an UPPER bound on the true
// entropy (uniform maximises entropy at fixed support and mass), tight when
// the tail is near-uniform — which is exactly the situation for the
// sampler's OUTPUT stream, making the estimator a good online monitor of
// "how uniform is my output" (see core/attack_detector.hpp).
#pragma once

#include <cstdint>

#include "streamstats/distinct.hpp"
#include "streamstats/heavy_hitters.hpp"

namespace unisamp {

class StreamingEntropy {
 public:
  /// `heavy_capacity` SpaceSaving slots; `hll_precision` registers for the
  /// distinct counter.
  StreamingEntropy(std::size_t heavy_capacity, unsigned hll_precision,
                   std::uint64_t seed);

  void add(std::uint64_t item);

  /// Empties both sketches and re-keys the distinct counter, as if
  /// constructed with `seed`; allocates nothing.
  void reset(std::uint64_t seed);

  /// Entropy estimate (nats): exact contribution of the tracked heavy
  /// hitters + uniform-tail model for the rest.
  double estimate() const { return estimate_with(distinct_estimate()); }

  /// Normalised entropy in [0, 1]: estimate / ln(distinct estimate);
  /// ~1 for a uniform stream, small under a peak/flooding attack.
  double normalized_estimate() const {
    return normalized_estimate(distinct_estimate());
  }
  /// The same, from a distinct_estimate() the caller already holds (one
  /// scan of the distinct counter instead of two).
  double normalized_estimate(double distinct) const;

  double distinct_estimate() const { return distinct_.estimate(); }
  std::uint64_t stream_length() const { return heavy_.stream_length(); }
  const SpaceSaving& heavy_hitters() const { return heavy_; }

 private:
  /// estimate() from a distinct_estimate() already taken.
  double estimate_with(double distinct) const;

  SpaceSaving heavy_;
  HyperLogLog distinct_;
};

}  // namespace unisamp
