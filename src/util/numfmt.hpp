// Number rendering for every report: the JSON, CSV and dist reports, shard
// reports, spec and grid JSON, ccd_report's text and the console tables.
// Each formatter appends in place to the caller's string, built on
// <charconv>: the standard defines to_chars with a precision as printf in
// the "C" locale, so the bytes are printf's, without its format parsing,
// locale lookups or a temporary per number.
//
// append_fixed and append_shortest first try an exact integer path and
// fall back to <charconv> only outside its domain; the bytes are the same
// either way.  With |d| = m * 2^e (m < 2^53):
//   * append_fixed, precision p <= 9, finite d, e <= 10: q = m * 10^p *
//     2^e rounded half to even (printf's rule on exact ties) is computed
//     in 128 bits (m * 10^p < 2^83); while q < 2^64 it prints as q / 10^p,
//     a point and q mod 10^p in p digits, after a '-' for any negative
//     sign bit (-0.0 and negatives that round to zero give "-0.0000").
//   * append_shortest, normal d with 1e-5 <= |d| < 1e15: for P = 1..15
//     the P-digit q = |d| * 10^(P-1-X) is rounded half to even exactly
//     (X = floor(log10 |d|) by integer comparison, a decade rounded up
//     carried into X), and the round trip is one IEEE multiply or divide
//     of q by 10^|t|, t = X - P + 1: q < 2^53 and |t| <= 22 make both
//     exact doubles, so that one correctly rounded operation is what
//     from_chars returns for the printed text (Clinger's fast path).  A
//     value needing 16 or 17 digits takes the <charconv> search.
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
