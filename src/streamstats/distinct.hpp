// Streaming distinct-element counting — the [4, 12, 15] substrate of the
// paper's related work (Sec. II), and the sampling service's online
// estimate of the population size n (which the knowledge-free strategy
// deliberately avoids needing, but diagnostics and the attack detector
// use).
//
// HyperLogLog with the standard bias corrections:
//  * m = 2^precision registers, register j keeps the max rho (leading-zero
//    rank) of hashed values routed to it;
//  * raw estimate alpha_m m^2 / sum(2^-M_j);
//  * small-range correction via linear counting when the raw estimate is
//    below 2.5m and empty registers exist.
// Standard error ~ 1.04/sqrt(m).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace unisamp {

class HyperLogLog {
 public:
  /// precision in [4, 18]; m = 2^precision registers (one byte each).
  HyperLogLog(unsigned precision, std::uint64_t seed);

  void add(std::uint64_t item);
  /// Empties the sketch and re-keys it, as if constructed with `seed`;
  /// allocates nothing.
  void reset(std::uint64_t seed);
  /// Estimated number of distinct items added.
  double estimate() const;

  /// Merge (register-wise max) — sketches must share precision and seed.
  void merge(const HyperLogLog& other);

  unsigned precision() const { return precision_; }
  std::size_t register_count() const { return registers_.size(); }
  /// Relative standard error of the estimator (1.04/sqrt(m)).
  double standard_error() const;

 private:
  unsigned precision_;
  std::uint64_t key_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace unisamp
