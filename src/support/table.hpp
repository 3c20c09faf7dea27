// Markdown table / CSV reporting for the experiment harness.
//
// Every experiment prints its tables (DESIGN.md Sect. 4 maps them) in
// GitHub-markdown format, so the harness output can be pasted into the
// docs verbatim.  write_csv mirrors a table to a directory for
// downstream plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rbb {

/// Column-oriented table accumulator with fixed headers.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_* calls fill it left to right.
  Table& row();
  Table& cell(std::string text);
  Table& cell(std::uint64_t v);
  Table& cell(std::int64_t v);
  Table& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
  /// Fixed-precision floating point cell.
  Table& cell(double v, int precision = 3);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  /// Raw cell text, row-major (consumed by the runner's JSON/CSV
  /// serialization, runner/result.hpp).
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

  /// Renders a GitHub-markdown table (pipes, header separator, padded
  /// columns).
  [[nodiscard]] std::string markdown() const;

  /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
  [[nodiscard]] std::string csv() const;

  /// Prints the markdown rendering, preceded by `title` as a heading.
  void print(std::ostream& os, const std::string& title) const;

  /// Writes the CSV rendering to `<dir>/<name>.csv` if dir is non-empty,
  /// creating the file (not the directory).  Returns true on success.
  bool write_csv(const std::string& dir, const std::string& name) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with examples).
[[nodiscard]] std::string format_double(double v, int precision = 3);

}  // namespace rbb
