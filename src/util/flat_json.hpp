// Minimal JSON machinery shared by the exp/ serialization code
// (ScenarioSpec, SweepGrid, shard specs and shard reports) and the obs/
// perf sidecars.  Lives in util/ -- the bottom of the layer DAG -- so
// obs/ can parse/emit sidecars without an include edge into exp/.
//
// This is NOT a general JSON library: it accepts exactly the shapes our
// own writers emit -- one object of string / number members plus
// bracket-balanced array members and brace-balanced object members
// captured as raw text for the caller to re-parse.  Keeping the scanner
// tiny beats pulling in a JSON dependency the container may not have.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccd::jsonu {

/// numfmt::append_shortest as a string: the shortest %.{P}g form that
/// std::from_chars parses back to the same double.  Keeps emitted JSON
/// both readable ("0.5", not "0.50000000000000000") and lossless -- the
/// byte-identical merge guarantee leans on this exactness.
std::string format_double(double d);

/// Advance `i` past a double-quoted JSON string (`i` must point at the
/// opening quote, escapes are honoured); false on unterminated input.
bool skip_quoted(const std::string& text, std::size_t& i);

/// One flat JSON object.  String members are unescaped; array members are
/// captured as raw bracket-balanced text (including the brackets); object
/// members as raw brace-balanced text (including the braces).  Trailing
/// content after the object is rejected: a concatenated or corrupted
/// record must not silently half-parse.
struct FlatJson {
  std::map<std::string, std::string> members;  // raw value text (unquoted)

  static std::optional<FlatJson> parse(const std::string& text);

  const std::string* find(const char* key) const {
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
  }
};

/// Parse the raw text of an array member into element raw texts: strings
/// are unescaped, numbers kept verbatim, nested objects/arrays captured
/// balanced.  nullopt on malformed input (including trailing junk).
std::optional<std::vector<std::string>> parse_array_items(
    const std::string& raw);

/// Strict finite double: the whole text is one std::from_chars decimal
/// (optional '-', digits, fraction, exponent) -- no whitespace, no '+', no
/// hex -- and the value is finite.  Every artifact reader and CLI flag
/// parses doubles through here, so "nan" and "inf" never reach a report.
std::optional<double> parse_double(std::string_view text);

/// Array of parse_double values; nullopt on anything else.
std::optional<std::vector<double>> parse_double_array(const std::string& raw);

/// Strict unsigned decimal: one or more digits and nothing else -- no
/// sign, no whitespace, no trailing bytes -- with a value <= `max` (pass
/// the narrower field's maximum when the result is narrowed).  Every
/// artifact reader parses unsigned members through here, so "-1" never
/// wraps to 2^64-1 and "4294967300" never truncates to 4.
std::optional<std::uint64_t> parse_u64(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Array of parse_u64 values; nullopt on anything else.
std::optional<std::vector<std::uint64_t>> parse_u64_array(
    const std::string& raw,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// 16-hex-digit rendering used for grid fingerprints in shard specs,
/// reports, checkpoints and perf sidecars (readable in error messages,
/// greppable across files); the parser takes exactly that form.
std::string fingerprint_to_hex(std::uint64_t fp);
std::optional<std::uint64_t> fingerprint_from_hex(std::string_view s);

/// Append `[a,b,...]` rendering doubles via numfmt::append_shortest.
void append_double_array(std::string& out, const std::vector<double>& xs);

/// JSON string escaping for the few places we emit caller-supplied text
/// (file paths never go through here; schedule names and enum tokens are
/// already escape-free, but defend anyway).
std::string quote(const std::string& s);

}  // namespace ccd::jsonu
