// Minimal CSV writer used by the benchmark harness to dump figure data
// series so they can be re-plotted (gnuplot/matplotlib) outside the repo.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace unisamp {

/// Streaming CSV writer.  Quotes fields when needed (comma, quote, newline).
/// Errors surface via good(), which flushes first so that a failure to
/// write the buffered rows shows too.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes a header row; typically called once, first.
  void header(std::initializer_list<std::string_view> names);

  /// Appends one row of already-formatted cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: row of doubles, formatted with %.8g.
  void row_numeric(const std::vector<double>& values);

  bool good() const { return out_.flush().good(); }

  /// Formats a double like the row helpers do (exposed for tests).
  static std::string format(double v);

 private:
  void write_cell(std::string_view cell, bool first);
  // mutable: good() flushes, so it stays an observer of the written rows.
  mutable std::ofstream out_;
};

}  // namespace unisamp
