// jsonu::parse_u64: the one strict unsigned parser every artifact reader
// goes through.  One case per rejected input class, plus the accepted
// edges.
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

TEST(FingerprintHex, RoundTripsAndRejectsOtherForms) {
  EXPECT_EQ(fingerprint_to_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(fingerprint_from_hex("00000000deadbeef"), 0xdeadbeefull);
  EXPECT_FALSE(fingerprint_from_hex("deadbeef"));
  EXPECT_FALSE(fingerprint_from_hex("00000000DEADBEEF"));
  EXPECT_FALSE(fingerprint_from_hex("00000000deadbeeg"));
}

}  // namespace
}  // namespace ccd::jsonu
