#include "stream/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "stream/generators.hpp"
#include "stream/webtrace.hpp"

namespace unisamp {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return "/tmp/unisamp_traceio_" + name;
  }
  void TearDown() override {
    std::error_code ec;
    for (const auto& p : created_) std::filesystem::remove(p, ec);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(TraceIoTest, TextRoundTrip) {
  const Stream original = {5, 1, 1, 99, 0, 18446744073709551615ull};
  const auto p = track(path("t1.txt"));
  save_stream_text(original, p);
  EXPECT_EQ(load_stream_text(p), original);
}

TEST_F(TraceIoTest, TextSkipsCommentsAndBlanks) {
  const auto p = track(path("t2.txt"));
  std::ofstream out(p);
  out << "# header\n\n1\n2\n# mid comment\n3\n";
  out.close();
  EXPECT_EQ(load_stream_text(p), (Stream{1, 2, 3}));
}

TEST_F(TraceIoTest, TextRejectsGarbage) {
  const auto p = track(path("t3.txt"));
  // Each line must be exactly one decimal u64: trailing junk, no digits, a
  // sign, a leading space and 2^64 all throw std::runtime_error naming the
  // file.
  for (const char* line :
       {"12abc", "abc", "-5", "+5", " 5", "18446744073709551616"}) {
    std::ofstream out(p);
    out << "1\n" << line << "\n";
    out.close();
    try {
      load_stream_text(p);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "malformed id line in " + p + ": " + line);
    }
  }
  // A binary trace is not text.
  save_stream_binary({1, 2, 3}, p);
  EXPECT_THROW(load_stream_text(p), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_stream_text("/tmp/unisamp_nonexistent_xyz"),
               std::runtime_error);
  EXPECT_THROW(load_stream_binary("/tmp/unisamp_nonexistent_xyz"),
               std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRoundTripShuffled) {
  const std::vector<std::uint64_t> counts = {100, 3, 0, 57, 1};
  const Stream original = exact_stream(counts, 5);
  const auto p = track(path("b1.bin"));
  save_stream_binary(original, p);
  EXPECT_EQ(load_stream_binary(p), original);
}

TEST_F(TraceIoTest, BinaryRoundTripEmpty) {
  const auto p = track(path("b2.bin"));
  save_stream_binary({}, p);
  EXPECT_TRUE(load_stream_binary(p).empty());
}

TEST_F(TraceIoTest, BinaryCompressesRuns) {
  // A sorted stream of one id is a single run: file stays tiny.
  const Stream runs(100000, 42);
  const auto p = track(path("b3.bin"));
  save_stream_binary(runs, p);
  EXPECT_LT(std::filesystem::file_size(p), 100u);
  EXPECT_EQ(load_stream_binary(p), runs);
}

TEST_F(TraceIoTest, BinaryRejectsWrongMagic) {
  const auto p = track(path("b4.bin"));
  std::ofstream out(p, std::ios::binary);
  out << "NOTATRACE-------";
  out.close();
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRejectsTruncation) {
  const auto p = track(path("b5.bin"));
  save_stream_binary({1, 2, 3}, p);
  // Truncate the file mid-pair.
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 4);
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
}

// Writes a USTRC001 header (runs, total) followed by the given raw u64s.
void write_raw_trace(const std::string& p, std::uint64_t runs,
                     std::uint64_t total,
                     const std::vector<std::uint64_t>& payload) {
  std::ofstream out(p, std::ios::binary);
  out << "USTRC001";
  std::vector<std::uint64_t> words = {runs, total};
  words.insert(words.end(), payload.begin(), payload.end());
  for (std::uint64_t w : words)
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(w >> (8 * i)));
}

// The header's id total is untrusted: a 24-byte file claiming 2^40 ids must
// fail as a malformed trace, not by attempting a 2^40-id allocation.
TEST_F(TraceIoTest, BinaryRejectsHugeTotalWithoutAllocating) {
  const auto p = track(path("b6.bin"));
  write_raw_trace(p, 0, std::uint64_t{1} << 40, {});
  ASSERT_EQ(std::filesystem::file_size(p), 24u);
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
  // A consistent 40-byte header can still declare more ids than any
  // vector holds: the whole-file load fails as a runtime_error, while a
  // reader bounded by max_ids streams it.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  write_raw_trace(p, 1, huge, {7, huge});
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
  TraceReader reader(p);
  Stream out;
  EXPECT_EQ(reader.read(out, 1000), 1000u);
  EXPECT_EQ(out, Stream(1000, 7));
}

// The file must be exactly 24 + 16 * runs bytes.
TEST_F(TraceIoTest, BinaryRejectsSizeNotMatchingRunCount) {
  const auto p = track(path("b7.bin"));
  write_raw_trace(p, std::uint64_t{1} << 40, 1, {7, 1});  // one run on disk
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
  write_raw_trace(p, 1, 1, {7, 1, 0});  // trailing bytes after the last run
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
  write_raw_trace(p, 1, 1, {7, std::uint64_t{1} << 40});  // run above total
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
  write_raw_trace(p, 1, 1, {7, 1});  // the well-formed file
  EXPECT_EQ(load_stream_binary(p), (Stream{7}));
}

// The ofstream destructor's flush is too late to report a failure: the
// writers must close and check, or /dev/full swallows the ids silently.
TEST_F(TraceIoTest, WritersThrowWhenTheFlushFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(save_stream_text({1, 2, 3}, "/dev/full"), std::runtime_error);
  EXPECT_THROW(save_stream_binary({1, 2, 3}, "/dev/full"),
               std::runtime_error);
}

// TraceReader serves the whole-file loaders' stream in any split: read(out,
// 0) consumes nothing, each read returns what it appended, and past the
// end every read returns 0.
TEST_F(TraceIoTest, ReaderStreamsEitherFormatInAnySplit) {
  Stream original;
  for (NodeId id = 0; id < 40; ++id)
    original.insert(original.end(), id % 7, id);  // runs of 0 to 6 ids
  const auto text = track(path("r1.txt"));
  const auto binary = track(path("r1.bin"));
  save_stream_text(original, text);
  save_stream_binary(original, binary);
  for (const auto& p : {text, binary}) {
    for (const std::size_t chunk : {1, 5, 4096}) {
      TraceReader reader(p);
      EXPECT_EQ(reader.binary(), p == binary);
      Stream out;
      EXPECT_EQ(reader.read(out, 0), 0u);
      for (;;) {
        const std::size_t before = out.size();
        const std::size_t got = reader.read(out, chunk);
        ASSERT_EQ(out.size() - before, got) << p;
        if (got < chunk) break;
        EXPECT_EQ(reader.read(out, 0), 0u);
      }
      EXPECT_EQ(out, original) << p << " chunk=" << chunk;
      EXPECT_EQ(reader.read(out, chunk), 0u);
      EXPECT_EQ(reader.read(out, chunk), 0u);
      EXPECT_EQ(out.size(), original.size());
    }
  }
}

TEST_F(TraceIoTest, CalibratedTraceRoundTrip) {
  const auto spec = scaled_spec(clarknet_trace_spec(), 500);
  const Stream trace = generate_webtrace(spec, 9);
  const auto p = track(path("b6.bin"));
  save_stream_binary(trace, p);
  EXPECT_EQ(load_stream_binary(p), trace);
}

}  // namespace
}  // namespace unisamp
