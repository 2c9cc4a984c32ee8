#include "stream/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace unisamp {

namespace {
constexpr std::array<char, 8> kMagic = {'U', 'S', 'T', 'R', 'C', '0', '0',
                                        '1'};
// Bytes of one (id, count) run after the 24-byte header, and the runs one
// block read holds (64 KiB).
constexpr std::uint64_t kRunBytes = 16;
constexpr std::uint64_t kBlockRuns = 4096;

void write_u64(std::ofstream& out, std::uint64_t v) {
  std::array<unsigned char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf.data()), 8);
}

// Written as one OR of shifted bytes, which gcc 12 compiles to a single
// load on x86-64; the equivalent shift loop compiled to eight byte loads,
// and every run is decoded twice (validated, then expanded).
std::uint64_t decode_u64(const char* bytes) {
  const auto* b = reinterpret_cast<const unsigned char*>(bytes);
  return std::uint64_t{b[0]} | std::uint64_t{b[1]} << 8 |
         std::uint64_t{b[2]} << 16 | std::uint64_t{b[3]} << 24 |
         std::uint64_t{b[4]} << 32 | std::uint64_t{b[5]} << 40 |
         std::uint64_t{b[6]} << 48 | std::uint64_t{b[7]} << 56;
}
}  // namespace

void save_stream_text(const Stream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  for (NodeId id : stream) out << id << '\n';
  out.close();  // flushes; a failed flush fails the stream
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_text(const std::string& path) {
  TraceReader reader(path);
  if (reader.binary())
    throw std::runtime_error(path + " is a unisamp binary trace, not text");
  Stream stream;
  reader.read(stream, std::numeric_limits<std::size_t>::max());
  return stream;
}

void save_stream_binary(const Stream& stream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(kMagic.data(), kMagic.size());
  // Count runs first so the header can carry the pair count.
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t j = i;
    while (j < stream.size() && stream[j] == stream[i]) ++j;
    ++runs;
    i = j;
  }
  write_u64(out, runs);
  write_u64(out, stream.size());
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t j = i;
    while (j < stream.size() && stream[j] == stream[i]) ++j;
    write_u64(out, stream[i]);
    write_u64(out, j - i);
    i = j;
  }
  out.close();  // flushes; a failed flush fails the stream
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_binary(const std::string& path) {
  TraceReader reader(path);
  if (!reader.binary())
    throw std::runtime_error(path + " is not a unisamp binary trace");
  Stream stream;
  reader.read(stream, std::numeric_limits<std::size_t>::max());
  return stream;
}

TraceReader::TraceReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("cannot open " + path);
  // Sniff the format: the binary header's magic vs anything else.
  std::array<char, 8> magic{};
  in_.read(magic.data(), magic.size());
  binary_ = in_ && magic == kMagic;
  if (!binary_) {
    in_.clear();
    in_.seekg(0);
    return;
  }
  std::array<char, 16> header;
  in_.read(header.data(), header.size());
  if (!in_) throw std::runtime_error("unexpected end of binary trace");
  runs_unread_ = decode_u64(header.data());
  declared_left_ = decode_u64(header.data() + 8);
  // The header is untrusted: its run count must match the bytes actually on
  // disk, and no allocation is sized from its id total.
  const std::streampos header_end = in_.tellg();
  in_.seekg(0, std::ios::end);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(in_.tellg() - header_end);
  in_.seekg(header_end);
  if (!in_ || payload % kRunBytes != 0 || payload / kRunBytes != runs_unread_)
    throw std::runtime_error(
        "binary trace size does not match its header in " + path_);
  block_.resize(std::min(runs_unread_, kBlockRuns) * kRunBytes);
  read_block();
}

void TraceReader::length_mismatch() const {
  throw std::runtime_error("binary trace length mismatch in " + path_);
}

bool TraceReader::read_block() {
  const std::uint64_t runs = std::min(runs_unread_, kBlockRuns);
  if (runs > 0) {
    const auto bytes = static_cast<std::size_t>(runs * kRunBytes);
    in_.read(block_.data(), static_cast<std::streamsize>(bytes));
    if (!in_) throw std::runtime_error("unexpected end of binary trace");
    // The whole block is checked before any of its ids is decoded: no run
    // may take more ids than the header has left.
    for (std::size_t at = 0; at < bytes; at += kRunBytes) {
      const std::uint64_t count = decode_u64(block_.data() + at + 8);
      if (count > declared_left_) length_mismatch();
      declared_left_ -= count;
    }
    runs_unread_ -= runs;
    block_end_ = bytes;
  }
  // After the last block the runs must sum to the declared total exactly.
  if (runs_unread_ == 0 && declared_left_ != 0) length_mismatch();
  return runs > 0;
}

std::size_t TraceReader::read(Stream& out, std::size_t max_ids) {
  if (!binary_) return read_text(out, max_ids);
  // The decode state lives in locals here: `out` holds 64-bit values, so
  // the compiler would otherwise reload the members after each store.
  std::size_t room = max_ids;
  std::size_t at = block_pos_;
  NodeId id = run_id_;
  std::uint64_t left = run_left_;
  while (room > 0) {
    if (left == 0) {
      if (at == block_end_) {
        if (!read_block()) break;
        at = 0;
      }
      id = static_cast<NodeId>(decode_u64(block_.data() + at));
      left = decode_u64(block_.data() + at + 8);
      at += kRunBytes;
      // A zero-length run is legal and contributes nothing.
      if (left == 0) continue;
    }
    const std::uint64_t take = std::min<std::uint64_t>(left, room);
    try {
      out.insert(out.end(), static_cast<std::size_t>(take), id);
    } catch (const std::exception&) {  // std::bad_alloc or std::length_error
      throw std::runtime_error("binary trace in " + path_ +
                               " declares more ids than fit in memory");
    }
    left -= take;
    room -= static_cast<std::size_t>(take);
  }
  block_pos_ = at;
  run_id_ = id;
  run_left_ = left;
  return max_ids - room;
}

std::size_t TraceReader::read_text(Stream& out, std::size_t max_ids) {
  std::size_t got = 0;
  std::string line;
  while (got < max_ids && std::getline(in_, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The whole line must be one decimal u64: no sign, no space, no
    // overflow.
    NodeId id = 0;
    const char* end = line.data() + line.size();
    const auto [stop, ec] = std::from_chars(line.data(), end, id);
    if (ec != std::errc{} || stop != end)
      throw std::runtime_error("malformed id line in " + path_ + ": " + line);
    out.push_back(id);
    ++got;
  }
  if (in_.bad()) throw std::runtime_error("read failure on " + path_);
  return got;
}

}  // namespace unisamp
