#include "streamstats/entropy.hpp"

#include <algorithm>
#include <cmath>

namespace unisamp {

StreamingEntropy::StreamingEntropy(std::size_t heavy_capacity,
                                   unsigned hll_precision, std::uint64_t seed)
    : heavy_(heavy_capacity), distinct_(hll_precision, seed) {}

void StreamingEntropy::add(std::uint64_t item) {
  heavy_.add(item);
  distinct_.add(item);
}

void StreamingEntropy::reset(std::uint64_t seed) {
  heavy_.clear();
  distinct_.reset(seed);
}

double StreamingEntropy::estimate_with(double distinct_ids) const {
  const double n_total = static_cast<double>(heavy_.stream_length());
  if (n_total == 0.0) return 0.0;

  // Exact-ish part: tracked entries, using count - error as the defensible
  // frequency (the over-estimate would otherwise leak tail mass into the
  // head and bias the entropy down).
  double h = 0.0;
  double tracked_mass = 0.0;
  std::size_t tracked_ids = 0;
  for (const auto& e : heavy_.entries()) {
    const double f = static_cast<double>(e.count - e.error);
    if (f <= 0.0) continue;
    const double p = f / n_total;
    h -= p * std::log(p);
    tracked_mass += p;
    ++tracked_ids;
  }

  // Tail model: residual mass spread uniformly over the untracked ids.
  const double residual = std::max(0.0, 1.0 - tracked_mass);
  const double distinct =
      std::max(distinct_ids, static_cast<double>(tracked_ids) + 1.0);
  const double tail_ids =
      std::max(1.0, distinct - static_cast<double>(tracked_ids));
  if (residual > 0.0) {
    const double p = residual / tail_ids;
    h -= residual * std::log(p);
  }
  return h;
}

double StreamingEntropy::normalized_estimate(double distinct) const {
  const double h_max = std::log(std::max(distinct, 2.0));
  return std::clamp(estimate_with(distinct) / h_max, 0.0, 1.5);
}

}  // namespace unisamp
