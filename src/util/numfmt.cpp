#include "util/numfmt.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace ccd::numfmt {

namespace {

using U128 = unsigned __int128;

constexpr int kMaxPrecision = std::numeric_limits<double>::max_digits10;

// Sign, every integer digit of the largest double, point, fraction.
constexpr std::size_t kFixedChars =
    1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + kMaxPrecision;

// Sign, 17 digits, point, "e-308".
constexpr std::size_t kGeneralChars = 32;

// 10^0 .. 10^19, every power of ten below 2^64.
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 20> pow10{1};
  for (std::size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
  return pow10;
}();

// 1e0 .. 1e22, every power of ten a double holds exactly (so every product
// in the loop is exact).
constexpr auto kPow10Exact = [] {
  std::array<double, 23> pow10{1.0};
  for (std::size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
  return pow10;
}();

// The integer fast paths' limits: append_fixed's precision (m * 10^p
// stays below 2^83), and append_shortest's magnitudes and digit count.
constexpr int kMaxFastFixedPrecision = 9;
constexpr double kMinFastShortest = 1e-5;
constexpr double kMaxFastShortest = 1e15;
constexpr int kMaxFastShortestDigits = 15;
// Digit counts append_shortest tries before it checks that 15 digits
// suffice at all.
constexpr int kShortTries = 2;

/// |d| = m * 2^e exactly, for finite d: the significand with its hidden
/// bit (none for zero and subnormals).
struct Binary {
  std::uint64_t m;
  int e;
};

Binary decompose(double d) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0) return {fraction, -1074};
  return {fraction | (std::uint64_t{1} << 52), biased - 1075};
}

/// x / 2^s rounded half to even; x < 2^127.
U128 shift_round(U128 x, int s) {
  if (s == 0) return x;
  if (s >= 128) return 0;  // x / 2^s < 1/2
  const U128 q = x >> s;
  const U128 rem = x - (q << s);
  const U128 half = U128{1} << (s - 1);
  return q + (rem > half || (rem == half && (q & 1) != 0));
}

/// num / den rounded half to even; den < 2^127.
U128 divide_round(U128 num, U128 den) {
  const U128 q = num / den;
  const U128 twice_rem = 2 * (num - q * den);
  return q + (twice_rem > den || (twice_rem == den && (q & 1) != 0));
}

/// Whether m * 2^-s >= 10^x, exactly; 0 <= s < 70, -19 <= x <= 19.
bool at_least_pow10(std::uint64_t m, int s, int x) {
  if (x >= 0) return U128{m} >= U128{kPow10[x]} << s;
  return U128{m} * kPow10[-x] >= U128{1} << s;
}

/// Writes the `p` digits of v, zero-padded, at out.
void write_digits(char* out, std::uint64_t v, int p) {
  for (int i = p - 1; i >= 0; --i) {
    out[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

/// Writes `%.{P}g` of the decimal q * 10^(x-P+1), where q has exactly P
/// digits (x is the decimal exponent): printf's layout, trailing zeros
/// stripped.
char* write_general(char* p, std::uint64_t q, int digits, int x) {
  char dig[kGeneralChars];
  std::to_chars(dig, dig + sizeof dig, q);
  int last = digits;  // digits kept after stripping trailing zeros
  while (last > 1 && dig[last - 1] == '0') --last;
  if (x < -4 || x >= digits) {
    *p++ = dig[0];
    if (last > 1) {
      *p++ = '.';
      p = std::copy(dig + 1, dig + last, p);
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x;
    if (ax < 10) *p++ = '0';
    return std::to_chars(p, p + 4, ax).ptr;
  }
  if (x >= 0) {
    p = std::copy(dig, dig + x + 1, p);
    if (last > x + 1) {
      *p++ = '.';
      p = std::copy(dig + x + 1, dig + last, p);
    }
    return p;
  }
  *p++ = '0';
  *p++ = '.';
  p = std::fill_n(p, -x - 1, '0');
  return std::copy(dig, dig + last, p);
}

/// The fast path of append_shortest, exact in integers: true, having
/// appended the answer, when some P <= 15 round-trips and d is normal
/// with 1e-5 <= |d| < 1e15.
bool append_shortest_fast(std::string& out, double d) {
  const double a = std::fabs(d);
  if (!(a >= kMinFastShortest && a < kMaxFastShortest)) return false;
  const Binary b = decompose(a);
  const int s = -b.e;  // 3 <= s <= 69 in this range
  // x = floor(log10 a): floor(log10 2^(e+52)) or one more.
  int x = ((b.e + 52) * 78913) >> 18;
  if (at_least_pow10(b.m, s, x + 1)) ++x;
  assert(x >= -5 && x <= 14);  // so every table index below is in range

  // Whether %.{digits}g parses back to a; its decimal is q * 10^(qx -
  // digits + 1).
  std::uint64_t q = 0;
  int qx = 0;
  auto round_trips = [&](int digits) {
    // q = a * 10^k rounded half to even, k = digits - 1 - x in [-14, 19].
    const int k = digits - 1 - x;
    q = static_cast<std::uint64_t>(
        k >= 0 ? shift_round(U128{b.m} * kPow10[k], s)
               : divide_round(b.m, U128{kPow10[-k]} << s));
    qx = x;
    if (q == kPow10[digits]) {  // rounded up a decade
      q = kPow10[digits - 1];
      ++qx;
    }
    // Clinger: q < 2^53 and 10^|t| <= 10^22 are exact doubles, so one
    // IEEE multiply or divide is the correctly rounded value of q * 10^t,
    // which is what from_chars returns for the printed text.
    const int t = qx - (digits - 1);
    const double dq = static_cast<double>(q);
    return (t >= 0 ? dq * kPow10Exact[t] : dq / kPow10Exact[-t]) == a;
  };
  for (int digits = 1; digits <= kMaxFastShortestDigits; ++digits) {
    // Once a precision round-trips every larger one does: the nearest
    // (P+1)-digit decimal is at least as close to a as the nearest P-digit
    // one, and the one lopsided rounding interval, a power of two's, here
    // (2^-16 .. 2^49) belongs to a decimal of at most 15 digits.  So after
    // the short tries a miss at 15 digits sends a 16- or 17-digit value
    // straight to the search.
    if (digits == kShortTries + 1 && !round_trips(kMaxFastShortestDigits)) {
      return false;
    }
    if (round_trips(digits)) {
      char buf[kGeneralChars];
      char* p = buf;
      if (std::signbit(d)) *p++ = '-';
      p = write_general(p, q, digits, qx);
      out.append(buf, static_cast<std::size_t>(p - buf));
      return true;
    }
  }
  return false;
}

}  // namespace

void append_fixed(std::string& out, double d, int precision) {
  assert(precision >= 0 && precision <= kMaxPrecision);
  if (precision <= kMaxFastFixedPrecision && std::isfinite(d)) {
    const Binary b = decompose(d);
    if (b.e <= 10) {
      // q = |d| * 10^p rounded half to even, exactly: m * 10^p < 2^83.
      const U128 scaled = U128{b.m} * kPow10[precision];
      const U128 q = b.e >= 0 ? scaled << b.e : shift_round(scaled, -b.e);
      if (q <= std::numeric_limits<std::uint64_t>::max()) {
        const auto v = static_cast<std::uint64_t>(q);
        const std::uint64_t unit = kPow10[precision];
        char buf[48];
        char* p = buf;
        if (std::signbit(d)) *p++ = '-';  // -0.0 and -0.00001 too
        p = std::to_chars(p, buf + sizeof buf, v / unit).ptr;
        if (precision > 0) {
          *p++ = '.';
          write_digits(p, v % unit, precision);
          p += precision;
        }
        out.append(buf, static_cast<std::size_t>(p - buf));
        return;
      }
    }
  }
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
  if (append_shortest_fast(out, d)) return;
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
