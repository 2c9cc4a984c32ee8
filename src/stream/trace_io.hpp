// Stream (trace) persistence.
//
// Two formats:
//  * plain text — one decimal id per line; interoperable with shell tools
//    and external plotting,
//  * run-length binary — little-endian (id, count) u64 pairs with a magic
//    header; compact for the calibrated web traces (millions of ids, long
//    runs after sorting is NOT assumed — runs are only taken as they occur,
//    so shuffled streams round-trip exactly too).
//
// Both formats are decoded by one streaming TraceReader; the whole-file
// loaders and the trace-replay frontend (trace_replay.hpp) drain it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "stream/types.hpp"

namespace unisamp {

/// Writes one id per line.  Throws std::runtime_error on I/O failure,
/// including a failure to flush the last buffered ids.
void save_stream_text(const Stream& stream, const std::string& path);

/// Reads a one-id-per-line file in full.  Ignores blank lines and lines
/// starting with '#'; every other line must be exactly a decimal u64 (no
/// sign, no surrounding space).  Throws std::runtime_error on I/O failure,
/// a parse error, or a binary trace.
Stream load_stream_text(const std::string& path);

/// Writes the run-length binary format.  Throws std::runtime_error on I/O
/// failure, including a failure to flush.
void save_stream_binary(const Stream& stream, const std::string& path);

/// Reads the run-length binary format in full, expanding up to the id total
/// its header declares; validates the header and every run.  Throws
/// std::runtime_error on I/O failure, a malformed file, a text trace, or
/// more ids than fit in memory.
Stream load_stream_binary(const std::string& path);

/// Streaming decoder of either format, sniffed from the USTRC001 magic.
///
/// Contracts:
///  - Same ids as the whole-file loaders, in the same order, for any split
///    of the trace into read() calls.
///  - Memory: a read() appends at most `max_ids` ids, so a caller that must
///    bound memory streams with a small `max_ids` whatever the header
///    declares; an expansion that cannot be allocated throws
///    std::runtime_error.  Besides, the reader holds one block of binary
///    runs (64 KiB) or one text line.
///  - Untrusted input: a binary trace must be exactly 24 + 16 * runs bytes
///    (checked at construction).  Each block of runs is checked against the
///    ids the header still declares when it is read, before any of its ids
///    is decoded, and after the last block the runs must sum to the
///    declared total exactly; the constructor reads the first block.  No
///    id past the declared total is ever appended.  Every malformed input
///    throws std::runtime_error; after a throw, the reader must not be read
///    again.
///  - Thread-safety: none.
class TraceReader {
 public:
  /// Opens `path` and sniffs its format; a binary trace's header is checked
  /// and its first block read.  Decodes no id.
  explicit TraceReader(const std::string& path);

  /// True for the USTRC001 run-length format, false for text.
  bool binary() const { return binary_; }

  /// Appends up to `max_ids` further ids to `out` and returns how many;
  /// fewer than `max_ids` only at the end of the trace, and 0 from then on.
  /// read(out, 0) consumes nothing.
  std::size_t read(Stream& out, std::size_t max_ids);

 private:
  std::size_t read_text(Stream& out, std::size_t max_ids);
  bool read_block();
  [[noreturn]] void length_mismatch() const;

  std::string path_;
  std::ifstream in_;
  bool binary_ = false;
  // Binary decode state: runs not yet read from the file, ids the header
  // declares beyond the blocks read so far, the block of read runs and the
  // decode cursor in it, and the current run's remainder (a run may span
  // many reads).
  std::uint64_t runs_unread_ = 0;
  std::uint64_t declared_left_ = 0;
  std::vector<char> block_;
  std::size_t block_pos_ = 0;
  std::size_t block_end_ = 0;
  NodeId run_id_ = 0;
  std::uint64_t run_left_ = 0;
};

}  // namespace unisamp
