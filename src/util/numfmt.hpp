// Number rendering for every report: the JSON, CSV and dist reports, shard
// reports, spec and grid JSON, ccd_report's text and the console tables.
// Each formatter appends in place to the caller's string, built on
// <charconv>: the standard defines to_chars with a precision as printf in
// the "C" locale, so the bytes are printf's, without its format parsing,
// locale lookups or a temporary per number.
#pragma once

#include <charconv>
#include <concepts>
#include <string>

namespace ccd::numfmt {

/// Append `%.{precision}f` of d (precision 0..17).  Sized for the largest
/// finite double: 1e300 renders all 301 integer digits.
void append_fixed(std::string& out, double d, int precision);

/// Append `%.{precision}g` of d (precision 1..17).
void append_general(std::string& out, double d, int precision);

/// Append the shortest `%.{P}g` (P = 1..17) that parses back to d exactly
/// -- readable ("0.5", not "0.50000000000000000") and lossless, which the
/// byte-identical shard merge leans on.  NaN, which never parses back to
/// itself, renders as `%.17g`.
void append_shortest(std::string& out, double d);

/// Append the decimal digits of an integer.
template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

/// String forms for callers that render one value at a time.
std::string fixed(double d, int precision);
std::string general(double d, int precision);

}  // namespace ccd::numfmt
