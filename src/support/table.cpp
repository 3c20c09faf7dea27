#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rbb {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: at least one header required");
  }
}

Table& Table::row() {
  if (!rows_.empty() && rows_.back().size() != headers_.size()) {
    throw std::logic_error("Table::row: previous row incomplete");
  }
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string text) {
  if (rows_.empty()) throw std::logic_error("Table::cell: call row() first");
  if (rows_.back().size() >= headers_.size()) {
    throw std::logic_error("Table::cell: row already full");
  }
  rows_.back().push_back(std::move(text));
  return *this;
}

Table& Table::cell(std::uint64_t v) { return cell(std::to_string(v)); }
Table& Table::cell(std::int64_t v) { return cell(std::to_string(v)); }

Table& Table::cell(double v, int precision) {
  return cell(format_double(v, precision));
}

std::string Table::markdown() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      out << ' ' << text << std::string(widths[c] - text.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& r : rows_) emit_row(r);
  return out.str();
}

std::string Table::csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (char ch : s) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out << ',';
    out << escape(headers_[c]);
  }
  out << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) out << ',';
      out << escape(r[c]);
    }
    out << '\n';
  }
  return out.str();
}

void Table::print(std::ostream& os, const std::string& title) const {
  os << "\n### " << title << "\n\n" << markdown() << '\n';
}

std::string format_double(double v, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

}  // namespace rbb
