#include "util/numfmt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ccd::numfmt {

namespace {

constexpr int kMaxPrecision = std::numeric_limits<double>::max_digits10;

// Sign, every integer digit of the largest double, point, fraction.
constexpr std::size_t kFixedChars =
    1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + kMaxPrecision;

// Sign, 17 digits, point, "e-308".
constexpr std::size_t kGeneralChars = 32;

}  // namespace

void append_fixed(std::string& out, double d, int precision) {
  assert(precision >= 0 && precision <= kMaxPrecision);
  char buf[kFixedChars];
  const auto result = std::to_chars(buf, buf + sizeof buf, d,
                                    std::chars_format::fixed, precision);
  assert(result.ec == std::errc());
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

void append_general(std::string& out, double d, int precision) {
  assert(precision >= 1 && precision <= kMaxPrecision);
  char buf[kGeneralChars];
  const auto result = std::to_chars(buf, buf + sizeof buf, d,
                                    std::chars_format::general, precision);
  assert(result.ec == std::errc());
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

void append_shortest(std::string& out, double d) {
  if (std::isfinite(d)) {
    char buf[kGeneralChars];
    char* const end = buf + sizeof buf;
    // A %.{P}g that parses back to d is a P-digit decimal inside d's
    // rounding interval, so P is at least the digit count of the shortest
    // such decimal -- to_chars' shortest scientific form.  Start there.
    const char* const sci =
        std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char* p = buf; p != sci && *p != 'e'; ++p) {
      digits += *p >= '0' && *p <= '9';
    }
    for (int precision = std::max(digits, 1); precision <= kMaxPrecision;
         ++precision) {
      const char* const stop =
          std::to_chars(buf, end, d, std::chars_format::general, precision)
              .ptr;
      double back = 0;
      const auto parsed = std::from_chars(buf, stop, back);
      if (parsed.ec == std::errc() && back == d) {
        out.append(buf, static_cast<std::size_t>(stop - buf));
        return;
      }
    }
  }
  append_general(out, d, kMaxPrecision);
}

std::string fixed(double d, int precision) {
  std::string out;
  append_fixed(out, d, precision);
  return out;
}

std::string general(double d, int precision) {
  std::string out;
  append_general(out, d, precision);
  return out;
}

}  // namespace ccd::numfmt
