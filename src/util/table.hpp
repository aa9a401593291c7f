// Minimal ASCII table printer so the claims table and the tools can render
// the paper's tables/series in a uniform, diffable format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ccd {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats arbitrary streamable cells.
  template <typename... Ts>
  void add(const Ts&... cells) {
    add_row({to_cell(cells)...});
  }

  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(bool b) { return b ? "yes" : "no"; }
  static std::string to_cell(double d);
  template <typename T>
  static std::string to_cell(const T& v) {
    return std::to_string(v);
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ccd
