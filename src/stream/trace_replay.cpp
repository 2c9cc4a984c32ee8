#include "stream/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/generators.hpp"
#include "stream/trace_io.hpp"

namespace unisamp {

std::string_view to_string(TraceReplayConfig::Kind kind) {
  switch (kind) {
    case TraceReplayConfig::Kind::kTraceFile:
      return "trace-file";
    case TraceReplayConfig::Kind::kDiurnal:
      return "diurnal";
    case TraceReplayConfig::Kind::kFlashCrowd:
      return "flash-crowd";
    case TraceReplayConfig::Kind::kDriftingHotSet:
      return "drifting-hot-set";
  }
  return "?";
}

std::string_view to_string(TraceReplayConfig::IoMode mode) {
  switch (mode) {
    case TraceReplayConfig::IoMode::kBuffered:
      return "buffered";
    case TraceReplayConfig::IoMode::kSlurp:
      return "slurp";
  }
  return "?";
}

void validate(const TraceReplayConfig& config) {
  if (config.ids_per_round == 0)
    throw std::invalid_argument("trace replay: ids_per_round must be > 0");
  if (config.kind == TraceReplayConfig::Kind::kTraceFile) {
    if (config.path.empty())
      throw std::invalid_argument("trace replay: file kind needs a path");
    if (config.io == TraceReplayConfig::IoMode::kBuffered &&
        config.buffer_ids == 0)
      throw std::invalid_argument(
          "trace replay: buffered IO needs buffer_ids > 0");
    return;
  }
  // Generator kinds share the Zipf base distribution.
  if (config.domain == 0)
    throw std::invalid_argument("trace replay: domain must be > 0");
  // !(x >= 0) also rejects NaN.
  if (!(config.zipf_alpha >= 0.0))
    throw std::invalid_argument(
        "trace replay: zipf_alpha must be finite and >= 0");
  switch (config.kind) {
    case TraceReplayConfig::Kind::kDiurnal:
      if (config.period < 2)
        throw std::invalid_argument("trace replay: diurnal period must be >= 2");
      if (!(config.amplitude >= 0.0 && config.amplitude <= 1.0))
        throw std::invalid_argument(
            "trace replay: diurnal amplitude outside [0, 1]");
      break;
    case TraceReplayConfig::Kind::kFlashCrowd:
      if (!(config.flash_multiplier >= 1.0))
        throw std::invalid_argument(
            "trace replay: flash_multiplier must be finite and >= 1");
      if (!(config.flash_share >= 0.0 && config.flash_share <= 1.0))
        throw std::invalid_argument(
            "trace replay: flash_share outside [0, 1]");
      if (config.flash_hotset == 0 || config.flash_hotset > config.domain)
        throw std::invalid_argument(
            "trace replay: flash_hotset must be in [1, domain]");
      break;
    case TraceReplayConfig::Kind::kDriftingHotSet:
      if (config.drift_every == 0)
        throw std::invalid_argument(
            "trace replay: drift_every must be >= 1");
      break;
    case TraceReplayConfig::Kind::kTraceFile:
      break;  // handled above
  }
}

// kTraceFile decoding is trace_io's TraceReader.  kSlurp drains it once at
// construction and serves by a cursor; kBuffered reads straight into the
// round, at most buffer_ids ids per read.
struct TraceReplaySource::FileReader {
  explicit FileReader(const TraceReplayConfig& config)
      : reader(config.path),
        slurp(config.io == TraceReplayConfig::IoMode::kSlurp),
        buffer_ids(config.buffer_ids) {
    if (slurp) reader.read(all, std::numeric_limits<std::size_t>::max());
  }

  /// Appends up to `n` further ids, each plus `offset`, to `out` and
  /// returns how many; fewer than `n` only at end of trace.  On a throw,
  /// `out` is left as it was.
  std::size_t serve(Stream& out, std::size_t n, NodeId offset) {
    const std::size_t base = out.size();
    if (slurp) {
      const std::size_t take = std::min(n, all.size() - pos);
      const auto first = all.begin() + static_cast<std::ptrdiff_t>(pos);
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(take));
      pos += take;
    } else {
      try {
        for (std::size_t served = 0; served < n;) {
          const std::size_t want = std::min(n - served, buffer_ids);
          const std::size_t got = reader.read(out, want);
          served += got;
          if (got < want) break;
        }
      } catch (...) {
        out.resize(base);
        throw;
      }
    }
    for (auto i = out.begin() + static_cast<std::ptrdiff_t>(base);
         i != out.end(); ++i)
      *i += offset;
    return out.size() - base;
  }

  TraceReader reader;
  bool slurp;
  std::size_t buffer_ids;
  // Slurp state: the whole decoded trace and the serve cursor in it.
  Stream all;
  std::size_t pos = 0;
};

TraceReplaySource::TraceReplaySource(TraceReplayConfig config)
    : config_(std::move(config)),
      rng_(derive_seed(config_.seed, 0x7ACE)) {
  validate(config_);
  if (config_.kind == TraceReplayConfig::Kind::kTraceFile) {
    file_ = std::make_unique<FileReader>(config_);
  } else {
    const std::vector<double> weights =
        zipf_weights(config_.domain, config_.zipf_alpha);
    zipf_.emplace(weights);
  }
}

TraceReplaySource::~TraceReplaySource() = default;
TraceReplaySource::TraceReplaySource(TraceReplaySource&&) noexcept = default;
TraceReplaySource& TraceReplaySource::operator=(TraceReplaySource&&) noexcept =
    default;

std::size_t TraceReplaySource::round_volume(std::size_t round) const {
  const double base = static_cast<double>(config_.ids_per_round);
  switch (config_.kind) {
    case TraceReplayConfig::Kind::kTraceFile:
      return config_.ids_per_round;
    case TraceReplayConfig::Kind::kDiurnal: {
      // Triangle wave in [0, 1] over `period` rounds: pure IEEE divide /
      // multiply (no libm), so the volume sequence is machine-independent.
      const std::size_t phase = round % config_.period;
      const std::size_t dist = std::min(phase, config_.period - phase);
      const double wave = static_cast<double>(dist) /
                          (static_cast<double>(config_.period) / 2.0);
      return static_cast<std::size_t>(std::llround(
          base * (1.0 - config_.amplitude + config_.amplitude * wave)));
    }
    case TraceReplayConfig::Kind::kFlashCrowd: {
      const bool in_flash = round >= config_.flash_start &&
                            round < config_.flash_start + config_.flash_rounds;
      if (!in_flash) return config_.ids_per_round;
      return static_cast<std::size_t>(
          std::llround(base * config_.flash_multiplier));
    }
    case TraceReplayConfig::Kind::kDriftingHotSet:
      return config_.ids_per_round;
  }
  return config_.ids_per_round;
}

std::size_t TraceReplaySource::next_round(Stream& out) {
  const std::size_t round = rounds_++;
  if (config_.kind == TraceReplayConfig::Kind::kTraceFile) {
    const std::size_t produced =
        file_->serve(out, config_.ids_per_round, config_.id_offset);
    total_ += produced;
    return produced;
  }
  const std::size_t volume = round_volume(round);
  std::size_t produced = 0;
  const bool in_flash =
      config_.kind == TraceReplayConfig::Kind::kFlashCrowd &&
      round >= config_.flash_start &&
      round < config_.flash_start + config_.flash_rounds;
  // Drifting: the whole distribution rotates through the id space, one
  // epoch every drift_every rounds — yesterday's heavy hitters cool off as
  // fresh ids inherit the Zipf head.
  const NodeId shift =
      config_.kind == TraceReplayConfig::Kind::kDriftingHotSet
          ? static_cast<NodeId>((round / config_.drift_every) *
                                config_.drift_step % config_.domain)
          : 0;
  for (std::size_t i = 0; i < volume; ++i) {
    NodeId id;
    if (in_flash && rng_.bernoulli(config_.flash_share)) {
      // The crowd slams the hottest objects: uniform over the Zipf head.
      id = static_cast<NodeId>(rng_.next_below(config_.flash_hotset));
    } else {
      id = static_cast<NodeId>(zipf_->sample(rng_));
    }
    id = (id + shift) % static_cast<NodeId>(config_.domain);
    out.push_back(id + config_.id_offset);
    ++produced;
  }
  total_ += produced;
  return produced;
}

}  // namespace unisamp
