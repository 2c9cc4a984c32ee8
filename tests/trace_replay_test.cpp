// TraceReplaySource (src/stream/trace_replay.*): config validation, the
// deterministic production-workload generators (diurnal / flash crowd /
// drifting hot set), buffered-vs-slurp bit-identity on both trace_io
// formats, binary block boundaries and untrusted headers, and the engine
// workload leg's does-not-perturb-gossip contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "stream/trace_io.hpp"
#include "stream/trace_replay.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

TraceReplayConfig generator_config(TraceReplayConfig::Kind kind) {
  TraceReplayConfig config;
  config.kind = kind;
  config.ids_per_round = 100;
  config.seed = 11;
  config.domain = 200;
  return config;
}

// A temp path unique to this test process; removed by the caller.
std::string temp_trace_path(const char* tag) {
  return ::testing::TempDir() + "trace_replay_" + tag + ".trace";
}

TEST(TraceReplayConfigTest, ValidateRejectsBadConfigs) {
  TraceReplayConfig config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  EXPECT_NO_THROW(validate(config));
  config.ids_per_round = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  config.domain = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.domain = 200;
  config.zipf_alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.zipf_alpha = 1.0;
  config.period = 1;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.period = 64;
  config.amplitude = 1.5;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kFlashCrowd);
  config.flash_multiplier = 0.5;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_multiplier = 4.0;
  config.flash_share = -0.1;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_share = 0.7;
  config.flash_hotset = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_hotset = config.domain + 1;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kDriftingHotSet);
  config.drift_every = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = TraceReplayConfig{};
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  EXPECT_THROW(validate(config), std::invalid_argument);  // empty path
  config.path = "whatever.trace";
  config.buffer_ids = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.io = TraceReplayConfig::IoMode::kSlurp;
  EXPECT_NO_THROW(validate(config));  // buffer size irrelevant under slurp

  EXPECT_EQ(to_string(TraceReplayConfig::Kind::kFlashCrowd), "flash-crowd");
  EXPECT_EQ(to_string(TraceReplayConfig::IoMode::kBuffered), "buffered");
}

TEST(TraceReplayGeneratorTest, GeneratorsAreDeterministicAndOffset) {
  for (const auto kind : {TraceReplayConfig::Kind::kDiurnal,
                          TraceReplayConfig::Kind::kFlashCrowd,
                          TraceReplayConfig::Kind::kDriftingHotSet}) {
    const TraceReplayConfig config = generator_config(kind);
    TraceReplaySource a(config);
    TraceReplaySource b(config);
    Stream sa, sb;
    for (int r = 0; r < 40; ++r) {
      a.next_round(sa);
      b.next_round(sb);
    }
    ASSERT_EQ(sa, sb) << to_string(kind);
    for (const NodeId id : sa) {
      ASSERT_GE(id, config.id_offset) << to_string(kind);
      ASSERT_LT(id, config.id_offset + config.domain) << to_string(kind);
    }
    EXPECT_EQ(a.rounds_generated(), 40u);
    EXPECT_EQ(a.total_ids(), sa.size());
  }
}

TEST(TraceReplayGeneratorTest, DiurnalVolumeFollowsTheTriangleWave) {
  TraceReplayConfig config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  config.period = 8;
  config.amplitude = 0.5;
  TraceReplaySource source(config);
  // dist(r) = min(r % 8, 8 - r % 8); volume = llround(100 * (0.5 + 0.5 *
  // dist / 4)): trough 50 at the period boundary, peak 100 mid-period.
  const std::size_t expected[] = {50, 63, 75, 88, 100, 88, 75, 63,
                                  50, 63, 75, 88, 100, 88, 75, 63};
  for (std::size_t r = 0; r < std::size(expected); ++r) {
    Stream round;
    EXPECT_EQ(source.next_round(round), expected[r]) << "round " << r;
  }
}

TEST(TraceReplayGeneratorTest, FlashCrowdSpikesVolumeOntoTheHotSet) {
  TraceReplayConfig config =
      generator_config(TraceReplayConfig::Kind::kFlashCrowd);
  config.flash_start = 4;
  config.flash_rounds = 3;
  config.flash_multiplier = 4.0;
  config.flash_hotset = 8;
  config.flash_share = 0.7;
  TraceReplaySource source(config);
  for (std::size_t r = 0; r < 10; ++r) {
    Stream round;
    const std::size_t volume = source.next_round(round);
    const bool in_flash = r >= 4 && r < 7;
    EXPECT_EQ(volume, in_flash ? 400u : 100u) << "round " << r;
    if (in_flash) {
      // At share 0.7 the hot set must dominate the round (the Zipf tail
      // also lands there occasionally, so well over half).
      std::size_t hot = 0;
      for (const NodeId id : round)
        hot += id < config.id_offset + config.flash_hotset ? 1 : 0;
      EXPECT_GT(hot, round.size() / 2) << "round " << r;
    }
  }
}

TEST(TraceReplayGeneratorTest, DriftShiftsTheWholeDistribution) {
  // A drifting source is the zero-drift source rotated by the epoch shift:
  // the underlying RNG draws are identical, the shift is applied after.
  TraceReplayConfig drifting =
      generator_config(TraceReplayConfig::Kind::kDriftingHotSet);
  drifting.drift_every = 4;
  drifting.drift_step = 37;
  TraceReplayConfig frozen = drifting;
  frozen.drift_step = 0;
  TraceReplaySource moving(drifting);
  TraceReplaySource still(frozen);
  for (std::size_t r = 0; r < 20; ++r) {
    Stream moved, base;
    moving.next_round(moved);
    still.next_round(base);
    ASSERT_EQ(moved.size(), base.size());
    const NodeId shift = (r / 4) * 37 % drifting.domain;
    for (std::size_t i = 0; i < moved.size(); ++i)
      ASSERT_EQ(moved[i] - drifting.id_offset,
                (base[i] - drifting.id_offset + shift) % drifting.domain)
          << "round " << r << " item " << i;
  }
}

TEST(TraceReplayFileTest, BufferedAndSlurpAreBitIdenticalOnBothFormats) {
  // A stream with runs (so the binary format exercises run splitting) and
  // a buffer size that is neither a divisor of the length nor of any run.
  Stream trace;
  Xoshiro256 rng(99);
  for (int i = 0; i < 500; ++i) {
    const NodeId id = rng.next_below(25);
    const std::size_t run = 1 + rng.next_below(9);
    for (std::size_t k = 0; k < run; ++k) trace.push_back(id);
  }
  const std::string text_path = temp_trace_path("text");
  const std::string binary_path = temp_trace_path("binary");
  save_stream_text(trace, text_path);
  save_stream_binary(trace, binary_path);

  for (const std::string& path : {text_path, binary_path}) {
    TraceReplayConfig config;
    config.kind = TraceReplayConfig::Kind::kTraceFile;
    config.path = path;
    config.ids_per_round = 97;
    config.id_offset = kHonestTraceIdBase;
    config.buffer_ids = 7;  // forces many refills and mid-run splits
    TraceReplayConfig slurp_config = config;
    slurp_config.io = TraceReplayConfig::IoMode::kSlurp;

    TraceReplaySource buffered(config);
    TraceReplaySource slurped(slurp_config);
    Stream from_buffered, from_slurped;
    std::uint64_t emitted = 0;
    for (;;) {
      const std::size_t got = buffered.next_round(from_buffered);
      ASSERT_EQ(slurped.next_round(from_slurped), got) << path;
      if (got == 0) break;
      emitted += got;
    }
    ASSERT_EQ(from_buffered, from_slurped) << path;
    EXPECT_EQ(emitted, trace.size()) << path;
    // The replay is the file's stream, offset into the honest id space.
    ASSERT_EQ(from_buffered.size(), trace.size()) << path;
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(from_buffered[i], trace[i] + kHonestTraceIdBase) << path;
  }
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
}

TEST(TraceReplayFileTest, MissingFileThrowsAtConstruction) {
  TraceReplayConfig config;
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  config.path = temp_trace_path("missing");
  EXPECT_THROW(TraceReplaySource{config}, std::runtime_error);
}

// Replays `path` to its end with id_offset 0; every round but the last is
// full.
Stream replay_file(const std::string& path, TraceReplayConfig::IoMode io,
                   std::size_t buffer_ids, std::size_t ids_per_round) {
  TraceReplayConfig config;
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  config.path = path;
  config.id_offset = 0;
  config.io = io;
  config.buffer_ids = buffer_ids;
  config.ids_per_round = ids_per_round;
  TraceReplaySource source(config);
  Stream out;
  while (source.next_round(out) == ids_per_round) {
  }
  EXPECT_EQ(source.total_ids(), out.size());
  return out;
}

// Both IO modes, at several chunk and round sizes, serve exactly what the
// whole-file loader decodes, and both equal the stream `path` was written
// from (save_stream_binary does not share the decoder under test).
void expect_replay_matches_load(const std::string& path,
                                const Stream& written) {
  const Stream expected = load_stream_binary(path);
  ASSERT_EQ(expected, written);
  for (const std::size_t buffer_ids : {1, 7, 4096, 10000}) {
    for (const std::size_t per_round : {1, 97, 5000}) {
      const Stream buffered = replay_file(
          path, TraceReplayConfig::IoMode::kBuffered, buffer_ids, per_round);
      ASSERT_EQ(buffered, expected)
          << "buffer_ids=" << buffer_ids << " per_round=" << per_round;
      ASSERT_EQ(replay_file(path, TraceReplayConfig::IoMode::kSlurp,
                            buffer_ids, per_round),
                expected)
          << "buffer_ids=" << buffer_ids << " per_round=" << per_round;
    }
  }
}

// Runs with lengths 1 + next_below(max_run); adjacent runs never share an
// id, so save_stream_binary writes exactly `runs` pairs.
Stream run_stream(std::size_t runs, std::uint64_t max_run, std::uint64_t seed) {
  Stream trace;
  Xoshiro256 rng(seed);
  for (std::size_t r = 0; r < runs; ++r) {
    const NodeId id = 2 * rng.next_below(1000) + r % 2;
    const std::uint64_t length = 1 + rng.next_below(max_run);
    trace.insert(trace.end(), length, id);
  }
  return trace;
}

// Binary runs are read 4096 (id, count) pairs per block: traces of one
// block exactly, one run past it, several blocks, and runs far longer than
// the chunk.
TEST(TraceReplayFileTest, BinaryBlockBoundariesMatchWholeFileLoad) {
  const std::string path = temp_trace_path("blocks");
  for (const std::size_t runs : {4095, 4096, 4097, 8192, 10001}) {
    const Stream trace = run_stream(runs, 3, runs);
    save_stream_binary(trace, path);
    SCOPED_TRACE("runs=" + std::to_string(runs));
    expect_replay_matches_load(path, trace);
  }
  const Stream long_runs = run_stream(40, 30000, 5);  // runs > buffer_ids
  save_stream_binary(long_runs, path);
  SCOPED_TRACE("long runs");
  expect_replay_matches_load(path, long_runs);
  std::remove(path.c_str());
}

// Writes a USTRC001 header (runs, total) followed by the given raw u64s.
void write_raw_trace(const std::string& path, std::uint64_t runs,
                     std::uint64_t total,
                     const std::vector<std::uint64_t>& payload) {
  std::ofstream out(path, std::ios::binary);
  out << "USTRC001";
  std::vector<std::uint64_t> words = {runs, total};
  words.insert(words.end(), payload.begin(), payload.end());
  for (std::uint64_t w : words)
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(w >> (8 * i)));
}

// Zero-length runs are legal and contribute nothing, also as the first and
// last run of a block and as the last run of the file.
TEST(TraceReplayFileTest, BinaryZeroLengthRunsMatchWholeFileLoad) {
  const std::string path = temp_trace_path("zero_runs");
  std::vector<std::uint64_t> payload;
  Stream written;
  constexpr std::uint64_t kRuns = 9000;
  for (std::uint64_t r = 0; r < kRuns; ++r) {
    const bool empty = r % 5 == 0 || r == 4095 || r == 4096 || r == kRuns - 1;
    const std::uint64_t length = empty ? 0 : 1 + r % 3;
    payload.push_back(r % 11);
    payload.push_back(length);
    written.insert(written.end(), length, r % 11);
  }
  write_raw_trace(path, kRuns, written.size(), payload);
  expect_replay_matches_load(path, written);
  std::remove(path.c_str());
}

// The header is untrusted, as in load_stream_binary: every malformed file
// throws std::runtime_error (never std::bad_alloc) in both IO modes.
void expect_rejected_at_construction(const std::string& path) {
  for (const auto io : {TraceReplayConfig::IoMode::kBuffered,
                        TraceReplayConfig::IoMode::kSlurp}) {
    TraceReplayConfig config;
    config.kind = TraceReplayConfig::Kind::kTraceFile;
    config.path = path;
    config.io = io;
    config.ids_per_round = 1024;
    EXPECT_THROW(TraceReplaySource{config}, std::runtime_error)
        << to_string(io);
  }
}

// 40 bytes: one run of 2^40 ids under a declared total of 1.  Expanding
// the run would serve ids far past the total, or allocate terabytes.
TEST(TraceReplayFileTest, BinaryRejectsRunLongerThanDeclaredTotal) {
  const std::string path = temp_trace_path("lying_run");
  write_raw_trace(path, 1, 1, {7, std::uint64_t{1} << 40});
  ASSERT_EQ(std::filesystem::file_size(path), 40u);
  expect_rejected_at_construction(path);
  std::remove(path.c_str());
}

// A lie further into the file is caught before its run is served: the
// buffered reader never hands out more ids than the header declares.
TEST(TraceReplayFileTest, BinaryLateLyingRunNeverExceedsDeclaredTotal) {
  const std::string path = temp_trace_path("late_lying_run");
  write_raw_trace(path, 3, 6, {1, 2, 2, 3, 3, std::uint64_t{1} << 40});
  TraceReplayConfig config;
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  config.path = path;
  config.id_offset = 0;
  config.buffer_ids = 1;
  config.ids_per_round = 1;
  Stream served;
  EXPECT_THROW(
      {
        TraceReplaySource source(config);
        for (int round = 0; round < 100; ++round) source.next_round(served);
      },
      std::runtime_error);
  EXPECT_LE(served.size(), 6u);
  config.io = TraceReplayConfig::IoMode::kSlurp;
  EXPECT_THROW(TraceReplaySource{config}, std::runtime_error);

  // Run 5000 of 6000 lies, inside the second 4096-run block.  Each block
  // is checked when it is read, before any of its ids is decoded: the
  // buffered replay serves the first block's 4096 ids and then throws.
  std::vector<std::uint64_t> payload;
  for (std::uint64_t r = 0; r < 6000; ++r) {
    payload.push_back(r);
    payload.push_back(r == 5000 ? std::uint64_t{1} << 40 : 1);
  }
  write_raw_trace(path, 6000, 6000, payload);
  config.io = TraceReplayConfig::IoMode::kBuffered;
  served.clear();
  EXPECT_THROW(
      {
        TraceReplaySource source(config);
        for (int round = 0; round < 6000; ++round) source.next_round(served);
      },
      std::runtime_error);
  ASSERT_EQ(served.size(), 4096u);
  for (NodeId i = 0; i < 4096; ++i) ASSERT_EQ(served[i], i);
  config.io = TraceReplayConfig::IoMode::kSlurp;
  EXPECT_THROW(TraceReplaySource{config}, std::runtime_error);
  std::remove(path.c_str());
}

// A malformed text line throws std::runtime_error from the round that
// reaches it; the rounds before it are served in full.
TEST(TraceReplayFileTest, TextMalformedLineThrowsFromTheRoundReachingIt) {
  const std::string path = temp_trace_path("bad_line");
  {
    std::ofstream out(path);
    for (int id = 0; id < 10; ++id) out << id << '\n';
    out << "-5\n";
  }
  TraceReplayConfig config;
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  config.path = path;
  config.id_offset = 0;
  config.buffer_ids = 3;
  config.ids_per_round = 4;
  TraceReplaySource source(config);
  Stream served;
  EXPECT_EQ(source.next_round(served), 4u);
  EXPECT_EQ(source.next_round(served), 4u);
  EXPECT_THROW(source.next_round(served), std::runtime_error);
  EXPECT_EQ(served, (Stream{0, 1, 2, 3, 4, 5, 6, 7}));
  config.io = TraceReplayConfig::IoMode::kSlurp;
  EXPECT_THROW(TraceReplaySource{config}, std::runtime_error);
  std::remove(path.c_str());
}

// A payload cut mid-run no longer matches the run count in the header, so
// the file is rejected when it is opened, not partway through the replay.
TEST(TraceReplayFileTest, BinaryRejectsPayloadTruncatedMidRun) {
  const std::string path = temp_trace_path("truncated");
  save_stream_binary(run_stream(5000, 3, 17), path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 12);
  expect_rejected_at_construction(path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unisamp

namespace unisamp::scenario {
namespace {

ScenarioSpec workload_base_spec() {
  ScenarioSpec spec;
  spec.name = "workload-test";
  spec.topology.kind = TopologySpec::Kind::kComplete;
  spec.topology.nodes = 20;
  spec.gossip.fanout = 2;
  spec.gossip.seed = 7;
  spec.gossip.byzantine_count = 4;
  spec.gossip.flood_factor = 6;
  spec.gossip.forged_id_count = 4;
  spec.gossip.record_inputs = true;
  spec.sampler.memory_size = 8;
  spec.sampler.sketch_width = 6;
  spec.sampler.sketch_depth = 4;
  spec.victim = 19;
  spec.schedule = {{AttackKind::kStaticFlood, 30, 0.0, 0}};
  return spec;
}

TEST(WorkloadSpecTest, ValidateRejectsCollidingIdOffset) {
  ScenarioSpec spec = workload_base_spec();
  spec.workload = TraceReplayConfig{};
  EXPECT_NO_THROW(validate(spec));
  spec.workload->id_offset = 1000;  // inside the node/forged id space
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.workload->id_offset = kHonestTraceIdBase;
  spec.workload->domain = 0;  // per-kind invariants are also enforced here
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(WorkloadEngineTest, WorkloadDoesNotPerturbTheGossipEvolution) {
  // The honest feed goes straight into the samplers; deliveries, recorded
  // input streams, and every network-RNG draw must be unchanged by it.
  ScenarioSpec plain = workload_base_spec();
  ScenarioSpec loaded = workload_base_spec();
  loaded.workload = TraceReplayConfig{};
  loaded.workload->ids_per_round = 64;
  ScenarioEngine plain_engine(plain);
  ScenarioEngine loaded_engine(loaded);
  const ScenarioRunReport plain_report = plain_engine.run();
  const ScenarioRunReport loaded_report = loaded_engine.run();

  EXPECT_EQ(plain_report.delivered, loaded_report.delivered);
  EXPECT_EQ(loaded_report.trace_ids_delivered,
            loaded_report.points.back().honest_trace_ids);
  EXPECT_GT(loaded_report.trace_ids_delivered, 0u);
  for (std::size_t i = 4; i < 20; ++i)
    ASSERT_EQ(plain_engine.network().input_stream(i),
              loaded_engine.network().input_stream(i))
        << "node " << i;

  // The honest ids DID reach the samplers: they dilute the malicious share
  // of the output streams.
  ASSERT_EQ(plain_report.points.size(), loaded_report.points.size());
  EXPECT_LT(loaded_report.points.back().output_pollution,
            plain_report.points.back().output_pollution);
}

TEST(WorkloadEngineTest, WorkloadRunsAreDeterministic) {
  ScenarioSpec spec = workload_base_spec();
  spec.workload = TraceReplayConfig{};
  spec.workload->kind = TraceReplayConfig::Kind::kFlashCrowd;
  spec.workload->flash_start = 10;
  spec.workload->flash_rounds = 5;
  spec.measure_every = 10;
  ScenarioEngine a(spec);
  ScenarioEngine b(spec);
  const ScenarioRunReport ra = a.run();
  const ScenarioRunReport rb = b.run();
  EXPECT_EQ(ra.trace_ids_delivered, rb.trace_ids_delivered);
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].output_pollution, rb.points[i].output_pollution);
    EXPECT_EQ(ra.points[i].honest_trace_ids, rb.points[i].honest_trace_ids);
  }
}

TEST(WorkloadEngineTest, DefenseSeesTheVictimsWorkloadShare) {
  // An all-quiescent schedule: the victim's workload share (10 ids/round
  // here, 400 over the run — more than a full detector window) must flow
  // through the detector too, closing strictly more windows than gossip
  // input alone.
  ScenarioSpec bare_spec = workload_base_spec();
  bare_spec.schedule = {{AttackKind::kQuiescent, 40, 0.0, 0}};
  bare_spec.defense = DefenseSpec{};
  bare_spec.defense->detector.window = 300;
  ScenarioSpec fed_spec = bare_spec;
  fed_spec.workload = TraceReplayConfig{};
  fed_spec.workload->ids_per_round = 160;  // 10 per instrumented node
  ScenarioEngine bare(bare_spec);
  ScenarioEngine fed(fed_spec);
  const ScenarioRunReport bare_report = bare.run();
  const ScenarioRunReport fed_report = fed.run();
  EXPECT_GT(fed_report.detector_windows.size(),
            bare_report.detector_windows.size());
}

}  // namespace
}  // namespace unisamp::scenario
