// numfmt: every report number is rendered by these <charconv> formatters,
// which replaced printf-based ones.  Each must write exactly the bytes of
// the formatter it replaced -- snprintf("%.4f") for the fixed form, and for
// the shortest form the old loop (the first %.{P}g, P = 1..17, that strtod
// parses back to the value) -- over random bit patterns, the decimal grid
// k/20000 and its neighbours, every power of two and its neighbours, and
// the special values.  Report bytes are pinned by hash elsewhere; this
// pins the formatters on inputs no shipped grid reaches.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"
#include "util/rng.hpp"

namespace ccd::numfmt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string printf_fixed(double d, int precision) {
  char buf[400];
  std::snprintf(buf, sizeof buf, "%.*f", precision, d);
  return buf;
}

std::string printf_general(double d, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, d);
  return buf;
}

bool printf_round_trips(double d, int precision) {
  return std::strtod(printf_general(d, precision).c_str(), nullptr) == d;
}

/// The shortest-form formatter numfmt replaced, verbatim.
std::string printf_shortest(double d) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

/// Whether `got` is printf_shortest(d), in two tries instead of up to
/// seventeen.  printf_shortest's answer is %.{P}g for the first P that
/// round-trips, so it shows exactly P significant digits (were a trailing
/// zero stripped, a smaller P would have printed the same text).  For a
/// finite d that is not a power of two the rounding interval is
/// symmetric, and the nearest (P+1)-digit decimal is at least as close to
/// d as the nearest P-digit one, so once a precision round-trips every
/// larger one does: `got` is the answer iff it is %.{P}g for its own digit
/// count P, and P round-trips where P - 1 does not.  Powers of two (their
/// interval below is half the one above) and non-finite values run the
/// loop itself.
bool is_printf_shortest(double d, const std::string& got) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
  const bool power_of_two = (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
  if (!std::isfinite(d) || power_of_two) return got == printf_shortest(d);
  int digits = 0;
  bool leading = true;
  for (char c : got) {
    if (c == 'e') break;
    if (c < '0' || c > '9') continue;
    leading = leading && c == '0';
    digits += !leading;
  }
  return digits >= 1 && digits <= 17 && got == printf_general(d, digits) &&
         printf_round_trips(d, digits) &&
         (digits == 1 || !printf_round_trips(d, digits - 1));
}

/// Checks both formatters on d; false (with a failure message) on the
/// first mismatch, so a broken formatter fails once, not a million times.
bool matches_printf(double d, bool exact_reference = false) {
  std::string fixed4, shortest;
  append_fixed(fixed4, d, 4);
  append_shortest(shortest, d);
  const bool shortest_ok = exact_reference ? shortest == printf_shortest(d)
                                           : is_printf_shortest(d, shortest);
  if (fixed4 == printf_fixed(d, 4) && shortest_ok) return true;
  ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(d)
                << ": fixed " << fixed4 << " vs " << printf_fixed(d, 4)
                << ", shortest " << shortest << " vs " << printf_shortest(d);
  return false;
}

bool matches_with_neighbours(double d) {
  return matches_printf(std::nextafter(d, -kInf)) && matches_printf(d) &&
         matches_printf(std::nextafter(d, kInf));
}

/// check(i) for i in [0, count), strided over four threads; true iff every
/// call returned true (the threads stop at the first false).
template <typename Check>
bool all_of_on_four_threads(std::int64_t count, const Check& check) {
  constexpr int kThreads = 4;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::int64_t i = t; i < count && ok.load(); i += kThreads) {
        if (!check(i)) ok.store(false);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ok.load();
}

TEST(NumFmt, SpecialValuesMatchPrintf) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double norm_min = std::numeric_limits<double>::min();
  const double max = std::numeric_limits<double>::max();
  const std::vector<double> specials = {
      0.0,          -0.0,
      denorm_min,   -denorm_min,
      3 * denorm_min, norm_min - denorm_min,
      norm_min,     -norm_min,
      1e-310,       -2.5e-320,
      max,          -max,
      kInf,         -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.1,          1.0 / 3.0,
      0.5,          1e60,
      -1e60,        123456789012345678.0};
  for (double d : specials) {
    EXPECT_TRUE(matches_printf(d, /*exact_reference=*/true)) << d;
  }
  EXPECT_EQ(jsonu::format_double(0.0), "0");
  EXPECT_EQ(jsonu::format_double(-0.0), "-0");
  EXPECT_EQ(jsonu::format_double(denorm_min), "5e-324");
  EXPECT_EQ(jsonu::format_double(kInf), "inf");
  EXPECT_EQ(jsonu::format_double(0.1), "0.1");
  EXPECT_EQ(jsonu::format_double(max), "1.7976931348623157e+308");
}

TEST(NumFmt, HugeValuesRenderInFull) {
  // The printf formatters wrote into 64-byte buffers and silently cut
  // anything from about 1e58 up; the charconv ones hold every digit.
  const std::string want =
      "999999999999999949387135297074018866963645011013410073083904.0000";
  EXPECT_EQ(fixed(1e60, 4), want);
  EXPECT_EQ(fixed(-1e60, 4), "-" + want);
  EXPECT_EQ(fixed(1e60, 1), want.substr(0, want.size() - 3));
  const std::string max = fixed(std::numeric_limits<double>::max(), 4);
  EXPECT_EQ(max.size(), 309u + 5u);
  EXPECT_EQ(max, printf_fixed(std::numeric_limits<double>::max(), 4));
  EXPECT_EQ(max.substr(0, 17), "17976931348623157");
}

TEST(NumFmt, FastPathBoundariesMatchPrintf) {
  // The edges of the integer fast paths, each with one ulp either side,
  // against snprintf and the verbatim loop.
  const std::vector<double> edges = {
      // %.4f ties at the fifth decimal round half to even.
      0.03125, 1.03125, -2.46875, 0.00005, -0.00005,
      // Decade carries: %.4f's 10.0000, %.1g's 1e+01, %.6g's 100000.
      9.99995, 9.5, 99999.95, -9.99995, 0.000099999,
      // Both sides of the shortest path's 1e-5 and 1e15 and of %.4f's
      // q = 2^64 (|d| * 10^4 = 2^64 near 1844674407370955.1616).
      1e-5, -1e-5, 1e15, -1e15, 999999999999999.9, 1844674407370955.1616,
      -1844674407370955.1616,
      // 15 significant digits against 16 and 17.
      1.23456789012345, 1.234567890123456, 123456789012345.6,
      987654321098765.4, 0.1 + 0.2, 1.0 / 15.0, 7.0 / 15.0, 2.0 / 3.0,
      // The spec doubles every wide_grid report carries.
      0.6, 0.4, 0.02, 2.5,
      // Zeros, subnormals and the rounding-to-zero side of %.4f.
      0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e-310,
      -1e-310, std::numeric_limits<double>::min(), 0.00004999, -0.00001};
  for (double d : edges) {
    for (double x : {std::nextafter(d, -kInf), d, std::nextafter(d, kInf)}) {
      EXPECT_TRUE(matches_printf(x, /*exact_reference=*/true)) << x;
    }
  }
  EXPECT_EQ(fixed(0.03125, 4), "0.0312");
  EXPECT_EQ(fixed(1.03125, 4), "1.0312");
  EXPECT_EQ(fixed(-2.46875, 4), "-2.4688");
  EXPECT_EQ(fixed(9.99995, 4), "10.0000");
  EXPECT_EQ(fixed(-0.0, 4), "-0.0000");
  EXPECT_EQ(fixed(-0.00001, 4), "-0.0000");
  EXPECT_EQ(general(9.5, 1), "1e+01");
  EXPECT_EQ(jsonu::format_double(99999.95), "99999.95");
  EXPECT_EQ(jsonu::format_double(1.0 / 15.0), "0.06666666666666667");
  // The fixed path's precisions 0..9 against printf at a tie and a carry.
  for (int precision = 0; precision <= 9; ++precision) {
    for (double d : {0.5, 2.5, 0.03125, 9.99999999995, -0.0, 1e-310}) {
      EXPECT_EQ(fixed(d, precision), printf_fixed(d, precision))
          << d << " at " << precision;
    }
  }
}

TEST(NumFmt, ShortDecimalsAndFastRangeMatchPrintf) {
  // Random doubles across the shortest path's 1e-5..1e15, and decimals of
  // 1 to 17 significant digits q * 10^t (the values reports carry): most
  // take the integer fast paths, the 16- and 17-digit ones fall back.
  Rng rng(0x73686f72);
  std::vector<double> values(400'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i % 2 == 0) {
      const double mantissa =
          1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
      const int exponent = static_cast<int>(rng() % 68) - 17;
      values[i] = std::ldexp(mantissa, exponent);
    } else {
      const int digits = 1 + static_cast<int>(rng() % 17);
      const auto q = static_cast<double>(
          rng() % static_cast<std::uint64_t>(std::pow(10.0, digits)));
      const int t = static_cast<int>(rng() % 25) - 20;
      values[i] = t >= 0 ? q * std::pow(10.0, t) : q / std::pow(10.0, -t);
    }
    if (rng() % 2 == 0) values[i] = -values[i];
  }
  EXPECT_TRUE(all_of_on_four_threads(
      static_cast<std::int64_t>(values.size()), [&](std::int64_t i) {
        return matches_printf(values[static_cast<std::size_t>(i)],
                              /*exact_reference=*/i % 64 == 0);
      }));
}

TEST(NumFmt, GeneralAndIntegerFormsMatchPrintf) {
  Rng rng(0x6e756d66);
  for (int i = 0; i < 20000; ++i) {
    const double d = std::bit_cast<double>(rng());
    for (int precision : {1, 3, 6, 17}) {
      ASSERT_EQ(general(d, precision), printf_general(d, precision)) << d;
    }
    ASSERT_EQ(fixed(d, 1), printf_fixed(d, 1)) << d;
    ASSERT_EQ(fixed(d, 0), printf_fixed(d, 0)) << d;
    const std::uint64_t u = rng();
    std::string text = "x", want = "x";
    append_int(text, u);
    append_int(text, static_cast<std::int64_t>(u));
    want += std::to_string(u);
    want += std::to_string(static_cast<std::int64_t>(u));
    ASSERT_EQ(text, want);
  }
}

TEST(NumFmt, PowersOfTwoAndNeighboursMatchPrintf) {
  // Every power of two, subnormal ones included, and one ulp either side:
  // the only doubles whose rounding interval is lopsided.
  for (int e = -1074; e <= 1023; ++e) {
    const double d = std::ldexp(1.0, e);
    for (double x : {std::nextafter(d, 0.0), d, std::nextafter(d, kInf)}) {
      ASSERT_TRUE(matches_printf(x, /*exact_reference=*/true)) << e;
      ASSERT_TRUE(matches_printf(-x, /*exact_reference=*/true)) << e;
    }
  }
}

TEST(NumFmt, DecimalGridAndNeighboursMatchPrintf) {
  // k/20000 for k < 2M: every value a four-decimal report column can hold
  // below 100, where %.4f's rounding ties and near-ties live.
  EXPECT_TRUE(all_of_on_four_threads(2'000'000, [](std::int64_t k) {
    return matches_with_neighbours(static_cast<double>(k) / 20000.0);
  }));
}

TEST(NumFmt, RandomBitPatternsMatchPrintf) {
  Rng rng(0x62697473);
  std::vector<std::uint64_t> patterns(1'000'000);
  for (std::uint64_t& bits : patterns) bits = rng();
  EXPECT_TRUE(all_of_on_four_threads(
      static_cast<std::int64_t>(patterns.size()), [&](std::int64_t i) {
        // One in 64 against the verbatim loop, which also checks the
        // two-try reference.
        return matches_printf(
            std::bit_cast<double>(patterns[static_cast<std::size_t>(i)]),
            /*exact_reference=*/i % 64 == 0);
      }));
}

}  // namespace
}  // namespace ccd::numfmt
