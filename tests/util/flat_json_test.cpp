// The reader every artifact goes through: jsonu::FlatJson::parse (the
// in-place object reader: last duplicate wins, escapes decode, keys iterate
// in ascending byte order, trailing bytes are rejected), the
// jsonu::for_each_item array walker, and the strict unsigned and
// finite-double parsers every artifact reader and CLI flag goes through.
// One case per rejected input class, plus the accepted edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

// ---- the object reader -----------------------------------------------------

/// `json`'s members in iteration order, as "key=value" lines.
std::string dump(const std::string& json) {
  auto obj = FlatJson::parse(json);
  if (!obj) return "<rejected>";
  std::string out;
  for (const auto& [key, value] : obj->members) {
    out += std::string(key) + "=" + std::string(value) + "\n";
  }
  return out;
}

TEST(FlatJsonParse, ADuplicatedKeyResolvesToItsLastOccurrence) {
  const std::string json = R"({"a":1,"b":2,"a":3})";
  auto obj = FlatJson::parse(json);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->find("a"));
  EXPECT_EQ(*obj->find("a"), "3");
  EXPECT_EQ(dump(json), "a=3\nb=2\n");
}

TEST(FlatJsonParse, EscapedKeysAndValuesDecodeToTheByteAfterEachBackslash) {
  const std::string json = R"({"k\"ey":"va\\lue\"\n","plain":"x"})";
  auto obj = FlatJson::parse(json);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->find("k\"ey"));
  EXPECT_EQ(*obj->find("k\"ey"), "va\\lue\"n");
  ASSERT_TRUE(obj->find("plain"));
  EXPECT_EQ(*obj->find("plain"), "x");
  EXPECT_FALSE(obj->find("k\\\"ey"));
}

TEST(FlatJsonParse, AQuotedNumberReadsLikeABareOne) {
  const std::string json = R"({"n":"4","m":4})";
  auto obj = FlatJson::parse(json);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->find("n") && obj->find("m"));
  EXPECT_EQ(*obj->find("n"), *obj->find("m"));
  EXPECT_EQ(parse_u64(*obj->find("n")), 4u);
}

TEST(FlatJsonParse, NestedMembersKeepTheirRawText) {
  const std::string json = R"( {"o" : {"x":[1, "]"]} , "a":[ "s" , {"y":1} ]} )";
  auto obj = FlatJson::parse(json);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->find("o") && obj->find("a"));
  EXPECT_EQ(*obj->find("o"), R"({"x":[1, "]"]})");
  EXPECT_EQ(*obj->find("a"), R"([ "s" , {"y":1} ])");
}

TEST(FlatJsonParse, AcceptsTheEmptyObject) {
  EXPECT_EQ(dump("{}"), "");
  EXPECT_EQ(dump(" \n{ \t} "), "");
}

TEST(FlatJsonParse, RejectsTrailingBytesCommasAndUnbalancedMembers) {
  for (const char* json :
       {R"({"a":1}x)", R"({"a":1} {})", R"({"a":1,})", R"({,})",
        R"({"a":[1,2})", R"({"a":{"b":1})", R"({"a":[1,2]]})",
        R"({"a":"open})", R"({"a":})", R"({"a" 1})", R"({a:1})", "",
        "[]", R"({"a":1)"}) {
    EXPECT_EQ(dump(json), "<rejected>") << json;
  }
}

TEST(FlatJsonParse, IteratesEachKeyOnceInAscendingByteOrder) {
  // Bytes compare unsigned: the UTF-8 lead byte 0xc3 sorts after 'z'.
  EXPECT_EQ(dump("{\"b\":1,\"\xc3\xa9\":5,\"a\":2,\"B\":3,\"aa\":4,\"b\":6}"),
            "B=3\na=2\naa=4\nb=6\n\xc3\xa9=5\n");
}

TEST(FlatJsonArrays, EmptyNestedAndTrailingJunkCases) {
  EXPECT_EQ(parse_u64_array("[]"), std::vector<std::uint64_t>{});
  EXPECT_EQ(parse_u64_array(" [ ] "), std::vector<std::uint64_t>{});
  EXPECT_EQ(parse_u64_array(" [ 1 , \"2\" ] "),
            (std::vector<std::uint64_t>{1, 2}));
  for (const char* raw : {"[1,]", "[,1]", "[1 2]", "[1] x", "[1]]", "[[1],2]",
                          "[{\"a\":1}]", "[1", "", "1"}) {
    EXPECT_FALSE(parse_u64_array(raw)) << raw;
    EXPECT_FALSE(parse_double_array(raw)) << raw;
  }
}

/// Every element for_each_item visits, as "[element]" runs, and its
/// result.
std::string walk(std::string_view raw, std::size_t stop_after = 100) {
  std::string out;
  std::size_t visits = 0;
  const bool done = for_each_item(raw, [&](std::string_view item) {
    out += '[';
    out += item;
    out += ']';
    return ++visits < stop_after;
  });
  return out + (done ? " true" : " false");
}

TEST(ForEachItem, VisitsElementsInOrderAsTheReaderDecodesThem) {
  EXPECT_EQ(walk(R"( [1, "a\"b" ,{"x":[1,"]"]}, [2,[3]],-0.5e1] )"),
            R"([1][a"b][{"x":[1,"]"]}][[2,[3]]][-0.5e1] true)");
  EXPECT_EQ(walk("[]"), " true");
  EXPECT_EQ(walk(" [ ] "), " true");
}

TEST(ForEachItem, StopsWhenTheVisitReturnsFalse) {
  EXPECT_EQ(walk("[1,2,3]", 2), "[1][2] false");
  EXPECT_EQ(walk("[1,2,3]", 3), "[1][2][3] false");
}

TEST(ForEachItem, AMalformedArrayVisitsNothing) {
  // The whole array is checked first, so no element before the fault is
  // seen either.
  for (const char* raw : {"[1,2] x", "[1,2]]", "[1,2,]", "[1 2]", "[1,[2]",
                          "[1,\"2]", "[1,{\"a\":2]", "{}", "", "1", "[,]"}) {
    EXPECT_EQ(walk(raw), " false") << raw;
  }
}

TEST(FlatJsonParse, ViewsPointIntoTheCallersBuffer) {
  const std::string json = R"({"a":"x","e":"y\"z","n":[1]})";
  auto obj = FlatJson::parse(json);
  ASSERT_TRUE(obj);
  const auto inside = [&json](std::string_view v) {
    return v.data() >= json.data() &&
           v.data() + v.size() <= json.data() + json.size();
  };
  EXPECT_TRUE(inside(*obj->find("a")));
  EXPECT_TRUE(inside(*obj->find("n")));
  EXPECT_EQ(*obj->find("e"), "y\"z");
  EXPECT_FALSE(inside(*obj->find("e")));  // the one decoded copy
  // Views into the decoded copies survive a move of the object.
  FlatJson moved = std::move(*obj);
  EXPECT_EQ(*moved.find("e"), "y\"z");
}

}  // namespace
}  // namespace ccd::jsonu
