#include "stream/trace_io.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace unisamp {

namespace {
constexpr std::array<char, 8> kMagic = {'U', 'S', 'T', 'R', 'C', '0', '0',
                                        '1'};
// Bytes of one (id, count) run after the 24-byte header.
constexpr std::uint64_t kRunBytes = 16;

void write_u64(std::ofstream& out, std::uint64_t v) {
  std::array<unsigned char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf.data()), 8);
}

std::uint64_t read_u64(std::ifstream& in) {
  std::array<unsigned char, 8> buf;
  in.read(reinterpret_cast<char*>(buf.data()), 8);
  if (!in) throw std::runtime_error("unexpected end of binary trace");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}
}  // namespace

void save_stream_text(const Stream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  for (NodeId id : stream) out << id << '\n';
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Stream stream;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(line, &pos);
    if (pos != line.size())
      throw std::runtime_error("malformed id line in " + path + ": " + line);
    stream.push_back(static_cast<NodeId>(v));
  }
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
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::array<char, 8> magic;
  in.read(magic.data(), magic.size());
  if (!in || std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0)
    throw std::runtime_error(path + " is not a unisamp binary trace");
  const std::uint64_t runs = read_u64(in);
  const std::uint64_t total = read_u64(in);
  // The header is untrusted: its run count must match the bytes actually on
  // disk, and no allocation is sized from its id total.
  const std::streampos header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(in.tellg() - header_end);
  in.seekg(header_end);
  if (!in || payload % kRunBytes != 0 || payload / kRunBytes != runs)
    throw std::runtime_error("binary trace size does not match its header in " +
                             path);
  Stream stream;
  for (std::uint64_t r = 0; r < runs; ++r) {
    const std::uint64_t id = read_u64(in);
    const std::uint64_t count = read_u64(in);
    if (count > total - stream.size())
      throw std::runtime_error("binary trace length mismatch in " + path);
    stream.insert(stream.end(), count, static_cast<NodeId>(id));
  }
  if (stream.size() != total)
    throw std::runtime_error("binary trace length mismatch in " + path);
  return stream;
}

}  // namespace unisamp
