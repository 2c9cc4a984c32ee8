#include "streamstats/distinct.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace unisamp {

namespace {
// 2^-r for every register value r (at most 64 - 4 + 1).  Halving is exact
// down to 2^-64, so the estimate's sum is the one std::pow would give.
constexpr std::array<double, 65> kInversePowersOfTwo = [] {
  std::array<double, 65> table{};
  double v = 1.0;
  for (double& t : table) {
    t = v;
    v /= 2.0;
  }
  return table;
}();

std::uint64_t hll_key(std::uint64_t seed) {
  return SplitMix64::mix(seed ^ 0x4C4C4853ULL);
}
}  // namespace

HyperLogLog::HyperLogLog(unsigned precision, std::uint64_t seed)
    : precision_(precision), key_(hll_key(seed)) {
  if (precision < 4 || precision > 18)
    throw std::invalid_argument("HLL precision must be in [4, 18]");
  registers_.assign(std::size_t{1} << precision, 0);
}

void HyperLogLog::reset(std::uint64_t seed) {
  key_ = hll_key(seed);
  std::fill(registers_.begin(), registers_.end(), std::uint8_t{0});
}

void HyperLogLog::add(std::uint64_t item) {
  const std::uint64_t h = SplitMix64::mix(item ^ key_);
  const std::size_t index = h >> (64 - precision_);
  const std::uint64_t rest = h << precision_;
  // rho = position of the leftmost 1-bit in the remaining bits (1-based);
  // all-zero rest maps to the maximum rank.
  const std::uint8_t rho =
      rest == 0 ? static_cast<std::uint8_t>(64 - precision_ + 1)
                : static_cast<std::uint8_t>(__builtin_clzll(rest) + 1);
  if (rho > registers_[index]) registers_[index] = rho;
}

double HyperLogLog::estimate() const {
  const double m = static_cast<double>(registers_.size());
  double alpha;
  if (registers_.size() == 16)
    alpha = 0.673;
  else if (registers_.size() == 32)
    alpha = 0.697;
  else if (registers_.size() == 64)
    alpha = 0.709;
  else
    alpha = 0.7213 / (1.0 + 1.079 / m);

  double denom = 0.0;
  std::size_t zeros = 0;
  for (std::uint8_t r : registers_) {
    denom += kInversePowersOfTwo[r];
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / denom;
  if (raw <= 2.5 * m && zeros > 0)
    return m * std::log(m / static_cast<double>(zeros));  // linear counting
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (other.precision_ != precision_ || other.key_ != key_)
    throw std::invalid_argument("incompatible HLL sketches");
  for (std::size_t i = 0; i < registers_.size(); ++i)
    registers_[i] = std::max(registers_[i], other.registers_[i]);
}

double HyperLogLog::standard_error() const {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

}  // namespace unisamp
