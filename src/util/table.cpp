#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/numfmt.hpp"

namespace ccd {

AsciiTable::AsciiTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void AsciiTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string AsciiTable::to_cell(double d) { return numfmt::general(d, 3); }

void AsciiTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << '\n';
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string AsciiTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace ccd
