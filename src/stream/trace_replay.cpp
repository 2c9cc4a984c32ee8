#include "stream/trace_replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/generators.hpp"

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

namespace {
constexpr std::array<char, 8> kMagic = {'U', 'S', 'T', 'R', 'C', '0', '0',
                                        '1'};
// Bytes of one (id, count) run after the 24-byte header, and the runs one
// block read decodes (64 KiB).
constexpr std::uint64_t kRunBytes = 16;
constexpr std::uint64_t kBlockRuns = 4096;

std::uint64_t decode_u64(const char* bytes) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  return v;
}
}  // namespace

// Incremental trace decoding.  kSlurp holds the whole decoded stream;
// kBuffered keeps two chunk buffers — while the front drains, the back
// already holds the next chunk — decoding text lines or binary run-length
// pairs exactly as trace_io's whole-file loaders do (a run longer than a
// chunk simply spans refills).  Binary runs are read kBlockRuns at a time,
// and the header is checked as load_stream_binary checks it: the file size
// must match the run count when the file is opened, and no run may exceed
// the declared id total.
struct TraceReplaySource::FileReader {
  explicit FileReader(const TraceReplayConfig& config) {
    slurp = config.io == TraceReplayConfig::IoMode::kSlurp;
    buffer_ids = config.buffer_ids;
    // Sniff the format: the binary header's magic vs anything else.
    {
      std::ifstream probe(config.path, std::ios::binary);
      if (!probe) throw std::runtime_error("cannot open " + config.path);
      std::array<char, 8> magic{};
      probe.read(magic.data(), magic.size());
      binary = probe &&
               std::memcmp(magic.data(), kMagic.data(), kMagic.size()) == 0;
    }
    path = config.path;
    in.open(path, binary ? std::ios::in | std::ios::binary : std::ios::in);
    if (!in) throw std::runtime_error("cannot open " + path);
    if (binary) open_binary();
    if (slurp) {
      // Decode everything now; serving is a cursor walk.
      std::size_t before = 0;
      do {
        before = all.size();
        fill(all);
      } while (all.size() > before);
    } else {
      fill(buf[0]);
      fill(buf[1]);
    }
  }

  void open_binary() {
    std::array<char, 16> header;
    in.seekg(static_cast<std::streamoff>(kMagic.size()));
    in.read(header.data(), header.size());
    if (!in) throw std::runtime_error("unexpected end of binary trace");
    runs_unread = decode_u64(header.data());
    declared_total = decode_u64(header.data() + 8);
    const std::streampos header_end = in.tellg();
    in.seekg(0, std::ios::end);
    const std::uint64_t payload =
        static_cast<std::uint64_t>(in.tellg() - header_end);
    in.seekg(header_end);
    if (!in || payload % kRunBytes != 0 || payload / kRunBytes != runs_unread)
      throw std::runtime_error(
          "binary trace size does not match its header in " + path);
    block.resize(std::min(runs_unread, kBlockRuns) * kRunBytes);
  }

  [[noreturn]] void length_mismatch() const {
    throw std::runtime_error("binary trace length mismatch in " + path);
  }

  /// Reads the next block of runs (decoding restarts at offset 0); false
  /// when the file has none left.
  bool read_block() {
    if (runs_unread == 0) return false;
    const std::uint64_t runs = std::min(runs_unread, kBlockRuns);
    in.read(block.data(), static_cast<std::streamsize>(runs * kRunBytes));
    if (!in) throw std::runtime_error("unexpected end of binary trace");
    runs_unread -= runs;
    block_end = static_cast<std::size_t>(runs * kRunBytes);
    return true;
  }

  /// Decodes up to buffer_ids further ids into `sink` (append).  An empty
  /// result means end of trace.
  void fill(Stream& sink) {
    if (binary) {
      // The decode state lives in locals here: `sink` holds 64-bit values,
      // so the compiler would otherwise reload the members after each
      // store.
      std::size_t room = buffer_ids;
      std::size_t at = block_pos;
      NodeId id = run_id;
      std::uint64_t left = run_left;
      std::uint64_t decoded = decoded_total;
      while (room > 0) {
        if (left == 0) {
          if (at == block_end) {
            if (!read_block()) break;
            at = 0;
          }
          id = static_cast<NodeId>(decode_u64(block.data() + at));
          left = decode_u64(block.data() + at + 8);
          at += kRunBytes;
          if (left > declared_total - decoded) length_mismatch();
          // A zero-length run is legal and contributes nothing.
          if (left == 0) continue;
        }
        const std::uint64_t take = std::min<std::uint64_t>(left, room);
        sink.insert(sink.end(), static_cast<std::size_t>(take), id);
        left -= take;
        room -= static_cast<std::size_t>(take);
        decoded += take;
      }
      block_pos = at;
      run_id = id;
      run_left = left;
      decoded_total = decoded;
      if (left == 0 && runs_unread == 0 && at == block_end &&
          !length_checked) {
        length_checked = true;
        if (decoded != declared_total) length_mismatch();
      }
      return;
    }
    const std::size_t target = sink.size() + buffer_ids;
    std::string line;
    while (sink.size() < target && std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::size_t pos = 0;
      const unsigned long long v = std::stoull(line, &pos);
      if (pos != line.size())
        throw std::runtime_error("malformed id line in " + path + ": " + line);
      sink.push_back(static_cast<NodeId>(v));
    }
  }

  /// Appends up to `n` further ids, each plus `offset`, to `out` and
  /// returns how many; fewer than `n` only at end of trace.
  std::size_t serve(Stream& out, std::size_t n, NodeId offset) {
    std::size_t served = 0;
    while (served < n) {
      if (!slurp && cur_pos == buf[cur].size()) {
        // Front buffer drained: prefetch the chunk after next into it, then
        // serve from the back buffer that was filled one swap ago.
        buf[cur].clear();
        fill(buf[cur]);
        cur ^= 1;
        cur_pos = 0;
      }
      const Stream& from = slurp ? all : buf[cur];
      std::size_t& at = slurp ? pos : cur_pos;
      const std::size_t take = std::min(n - served, from.size() - at);
      if (take == 0) break;
      const auto first = from.begin() + static_cast<std::ptrdiff_t>(at);
      const auto base = static_cast<std::ptrdiff_t>(out.size());
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(take));
      for (auto i = out.begin() + base; i != out.end(); ++i) *i += offset;
      at += take;
      served += take;
    }
    return served;
  }

  std::string path;
  std::ifstream in;
  bool binary = false;
  bool slurp = false;
  // Binary decode state: runs not yet read from the file, the block of
  // read runs and the decode cursor in it, and the current run's remainder
  // (a run may span many chunks).
  std::uint64_t runs_unread = 0;
  std::vector<char> block;
  std::size_t block_pos = 0;
  std::size_t block_end = 0;
  NodeId run_id = 0;
  std::uint64_t run_left = 0;
  std::uint64_t declared_total = 0;
  std::uint64_t decoded_total = 0;
  bool length_checked = false;
  // Slurp state.
  Stream all;
  std::size_t pos = 0;
  // Buffered state.
  std::size_t buffer_ids = 0;
  Stream buf[2];
  std::size_t cur = 0;
  std::size_t cur_pos = 0;
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
