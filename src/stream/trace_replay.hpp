// Trace-replay workload frontend: production-shaped honest traffic for the
// scenario engine (and any other consumer of round-batched id streams).
//
// The paper's evaluation feeds samplers i.i.d. draws from fixed
// distributions; production input streams are nothing like that — load
// breathes with the day, flash crowds slam a handful of objects, and the
// heavy-hitter set drifts.  This module produces such streams round by
// round, from two sources:
//
//  * recorded traces on disk (the trace_io formats: one-id-per-line text or
//    USTRC001 run-length binary, e.g. the calibrated webtrace streams),
//    decoded by trace_io's TraceReader and replayed either by slurping the
//    whole file or by decoding each round straight into the caller's batch
//    — so multi-million-id traces stream through the engine without the
//    trace ever being held in memory;
//  * deterministic generators for three production shapes: diurnal load
//    (triangle-wave volume), flash crowds (a volume spike concentrated on a
//    small hot set), and drifting heavy hitters (the Zipf head rotates
//    through the id space).
//
// Contracts:
//  - Determinism: the emitted sequence is a pure function of the config
//    (including the file bytes for kTraceFile).  The buffered and slurp IO
//    modes are bit-identical for the same file (differential-tested), and
//    the volume shaping uses only IEEE arithmetic (+ llround) — no libm
//    transcendentals — so every machine generates the same stream.
//  - Id space: every emitted id is offset by `id_offset`.  Scenario
//    workloads must keep honest trace ids above kHonestTraceIdBase so they
//    can never collide with real node ids, the static forged pool, or the
//    Sybil-churn mint space (which grows upward from nodes + 2^32).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "stream/discrete_sampler.hpp"
#include "stream/types.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Floor of the honest trace id space for scenario workloads: far above any
/// node id or Sybil mint (scenario churn mints from nodes + 2^32 upward and
/// grows by at most pool_size * rotations per phase).
inline constexpr NodeId kHonestTraceIdBase = NodeId{1} << 40;

struct TraceReplayConfig {
  enum class Kind {
    kTraceFile,       ///< replay a trace_io file (text or binary)
    kDiurnal,         ///< Zipf stream, triangle-wave volume
    kFlashCrowd,      ///< Zipf stream + a volume spike on a small hot set
    kDriftingHotSet,  ///< Zipf stream whose head drifts through the domain
  };
  enum class IoMode {
    kBuffered,  ///< decode each round from the file as it is served
    kSlurp,     ///< load the whole file up front (differential anchor)
  };

  Kind kind = Kind::kDiurnal;
  /// Peak honest ids per round (generator kinds) / ids drawn from the file
  /// per round (kTraceFile).  Must be positive.
  std::size_t ids_per_round = 100;
  /// Added to every emitted id; scenario workloads require
  /// >= kHonestTraceIdBase (standalone users may use any offset).
  NodeId id_offset = kHonestTraceIdBase;
  std::uint64_t seed = 1;

  /// Generator kinds: Zipf(zipf_alpha) over `domain` distinct ids.
  std::size_t domain = 1000;
  double zipf_alpha = 1.0;

  /// kDiurnal: rounds per "day" (>= 2) and the peak-to-trough swing as a
  /// fraction of ids_per_round, in [0, 1] (0 = flat load).
  std::size_t period = 64;
  double amplitude = 0.5;

  /// kFlashCrowd: rounds [flash_start, flash_start + flash_rounds) carry
  /// ids_per_round * flash_multiplier ids, of which a `flash_share`
  /// fraction is drawn uniformly from the `flash_hotset` hottest ids.
  std::size_t flash_start = 0;
  std::size_t flash_rounds = 0;
  double flash_multiplier = 4.0;
  std::size_t flash_hotset = 8;
  double flash_share = 0.7;

  /// kDriftingHotSet: every drift_every rounds the whole distribution
  /// shifts by drift_step ids (mod domain), rotating the Zipf head.
  std::size_t drift_every = 32;
  std::size_t drift_step = 1;

  /// kTraceFile: the trace path (format sniffed from the USTRC001 magic)
  /// and how to read it.  buffer_ids caps the ids one kBuffered read
  /// decodes into the round; the round batch, not the source, holds them.
  std::string path;
  IoMode io = IoMode::kBuffered;
  std::size_t buffer_ids = 4096;
};

std::string_view to_string(TraceReplayConfig::Kind kind);
std::string_view to_string(TraceReplayConfig::IoMode mode);

/// Validates the config's per-kind invariants (positive volume, period >= 2,
/// shares/amplitudes in [0, 1], non-empty path, positive buffer, ...).
/// Throws std::invalid_argument.  File existence/readability is checked at
/// source construction, not here.
void validate(const TraceReplayConfig& config);

/// Round-batched honest-traffic source.
///
/// Contracts:
///  - Determinism: see the header comment; next_round(r) for r = 0, 1, ...
///    emits the same ids on every machine and for either IoMode.
///  - One pass: rounds are generated in order; there is no rewind.
///  - Thread-safety: none.
class TraceReplaySource {
 public:
  /// Validates the config; kTraceFile opens the file and checks a binary
  /// trace's header against the file size and its first block of runs
  /// against the header (throws std::runtime_error on IO failure or a
  /// malformed file, like trace_io's loaders).  kSlurp decodes the whole
  /// trace here; kBuffered decodes no id yet.
  explicit TraceReplaySource(TraceReplayConfig config);
  ~TraceReplaySource();
  TraceReplaySource(TraceReplaySource&&) noexcept;
  TraceReplaySource& operator=(TraceReplaySource&&) noexcept;

  /// Appends the next round's ids to `out` and returns how many were
  /// appended.  Generator kinds always produce the round's full volume;
  /// kTraceFile produces fewer — eventually zero — once the trace is
  /// exhausted, and throws std::runtime_error, leaving `out` as it was,
  /// when the round reaches a malformed block or text line.
  std::size_t next_round(Stream& out);

  /// Rounds generated so far.
  std::size_t rounds_generated() const { return rounds_; }
  /// Total ids emitted so far.
  std::uint64_t total_ids() const { return total_; }
  const TraceReplayConfig& config() const { return config_; }

 private:
  struct FileReader;  // buffered / slurp trace decoding (trace_replay.cpp)

  std::size_t round_volume(std::size_t round) const;

  TraceReplayConfig config_;
  std::optional<DiscreteSampler> zipf_;  // generator kinds only
  Xoshiro256 rng_;
  std::unique_ptr<FileReader> file_;  // kTraceFile only
  std::size_t rounds_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace unisamp
