// jsonu::parse_u64 and jsonu::parse_double: the strict unsigned and
// finite-double parsers every artifact reader and CLI flag goes through.
// One case per rejected input class, plus the accepted edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/flat_json.hpp"

namespace ccd::jsonu {
namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

TEST(ParseU64, AcceptsPlainDecimalUpToTheMax) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("4294967295", kU32Max), kU32Max);
}

TEST(ParseU64, RejectsEmptyText) { EXPECT_FALSE(parse_u64("")); }

TEST(ParseU64, RejectsANegativeSign) {
  // strtoull would wrap "-1" to 2^64-1.
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("-0"));
}

TEST(ParseU64, RejectsAPlusSign) { EXPECT_FALSE(parse_u64("+1")); }

TEST(ParseU64, RejectsLeadingWhitespace) {
  // strtoull skips it, so " -1" used to slip past a first-byte sign check.
  EXPECT_FALSE(parse_u64(" 1"));
  EXPECT_FALSE(parse_u64(" -1"));
}

TEST(ParseU64, RejectsTrailingBytes) {
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("1 "));
  EXPECT_FALSE(parse_u64("1.5"));
  EXPECT_FALSE(parse_u64("0x10"));
  EXPECT_FALSE(parse_u64(std::string_view("7\0", 2)));
}

TEST(ParseU64, RejectsOverflow) {
  EXPECT_FALSE(parse_u64("18446744073709551616"));
  EXPECT_FALSE(parse_u64("99999999999999999999999"));
}

TEST(ParseU64, RejectsValuesAboveANarrowMax) {
  // "4294967300" into a 32-bit field must not truncate to 4.
  EXPECT_FALSE(parse_u64("4294967296", kU32Max));
  EXPECT_FALSE(parse_u64("4294967300", kU32Max));
}

TEST(ParseU64Array, AppliesTheSameRules) {
  EXPECT_EQ(parse_u64_array("[1,2,3]"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(parse_u64_array("[1,-2]"));
  EXPECT_FALSE(parse_u64_array("[1,18446744073709551616]"));
  EXPECT_FALSE(parse_u64_array("[4294967300]", kU32Max));
}

TEST(ParseDouble, AcceptsDecimalFractionAndExponentForms) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("-2.5"), -2.5);
  EXPECT_EQ(parse_double("0.125"), 0.125);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("2.5E-1"), 0.25);
  // Whatever format_double writes reads back exactly.
  EXPECT_EQ(parse_double(format_double(0.1)), 0.1);
}

TEST(ParseDouble, RejectsNanAndInfinities) {
  // strtod takes all of these, and "nan" once reached a report as
  // "density":nan, which is not JSON.
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                           "1e999", "-1e999"}) {
    EXPECT_FALSE(parse_double(text)) << text;
  }
}

TEST(ParseDouble, RejectsHex) {
  EXPECT_FALSE(parse_double("0x1p-1"));
  EXPECT_FALSE(parse_double("0x10"));
}

TEST(ParseDouble, RejectsWhitespaceAndAPlusSign) {
  EXPECT_FALSE(parse_double(" 1"));
  EXPECT_FALSE(parse_double("1 "));
  EXPECT_FALSE(parse_double("+1"));
}

TEST(ParseDouble, RejectsEmptyAndTrailingBytes) {
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("-"));
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(std::string_view("7\0", 2)));
}

TEST(ParseDoubleArray, AppliesTheSameRules) {
  EXPECT_EQ(parse_double_array("[2,3.5]"), (std::vector<double>{2, 3.5}));
  EXPECT_FALSE(parse_double_array("[2,nan]"));
  EXPECT_FALSE(parse_double_array("[inf]"));
  EXPECT_FALSE(parse_double_array("[+1]"));
}

TEST(FingerprintHex, RoundTripsAndRejectsOtherForms) {
  EXPECT_EQ(fingerprint_to_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(fingerprint_from_hex("00000000deadbeef"), 0xdeadbeefull);
  EXPECT_FALSE(fingerprint_from_hex("deadbeef"));
  EXPECT_FALSE(fingerprint_from_hex("00000000DEADBEEF"));
  EXPECT_FALSE(fingerprint_from_hex("00000000deadbeeg"));
}

}  // namespace
}  // namespace ccd::jsonu
