// Minimal JSON machinery shared by the exp/ serialization code
// (ScenarioSpec, SweepGrid, shard specs and shard reports) and the obs/
// perf sidecars.  Lives in util/ -- the bottom of the layer DAG -- so
// obs/ can parse/emit sidecars without an include edge into exp/.
//
// This is NOT a general JSON library: it accepts exactly the shapes our
// own writers emit -- one object of string / number members plus
// bracket-balanced array members and brace-balanced object members.  It
// reads in place: every key and value is a std::string_view into the
// caller's buffer (array and object members as their raw balanced text,
// for the caller to parse in turn), so a view lives no longer than that
// buffer.  Only a string holding a backslash is decoded into a copy.
// Keeping the scanner tiny beats pulling in a JSON dependency the
// container may not have.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/numfmt.hpp"

namespace ccd::jsonu {

/// numfmt::append_shortest as a string: the shortest %.{P}g form that
/// std::from_chars parses back to the same double.  Keeps emitted JSON
/// both readable ("0.5", not "0.50000000000000000") and lossless -- the
/// byte-identical merge guarantee leans on this exactness.
std::string format_double(double d);

/// Advance `i` past a double-quoted JSON string (`i` must point at the
/// opening quote, escapes are honoured); false on unterminated input.
bool skip_quoted(std::string_view text, std::size_t& i);

/// One flat JSON object, read in place.  String members are decoded (the
/// byte after each backslash stands for itself), so "n":"4" reads like
/// "n":4; array members are their raw bracket-balanced text (brackets
/// included) and object members their raw brace-balanced text.  A
/// duplicated key resolves to its last occurrence.  Trailing content after
/// the object is rejected: a concatenated or corrupted record must not
/// silently half-parse.
class FlatJson {
 public:
  struct Member {
    std::string_view key;
    std::string_view value;
  };
  /// One per key, in ascending byte order of the key.
  std::vector<Member> members;

  /// Views point into `text`, which must outlive the result.
  static std::optional<FlatJson> parse(std::string_view text);
  /// A temporary std::string would die before the views into it.
  template <typename S>
    requires std::same_as<S, std::string>
  static std::optional<FlatJson> parse(S&& text) = delete;

  std::optional<std::string_view> find(std::string_view key) const;
  /// The position of `key` in `members`, for readers that track which
  /// members they consumed.
  std::optional<std::size_t> index_of(std::string_view key) const;

 private:
  /// Decoded copies of the keys and values that held a backslash; the
  /// heap strings stay put when the object moves.
  std::vector<std::unique_ptr<std::string>> decoded_;
};

namespace detail {
bool walk_items(std::string_view raw,
                bool (*visit)(void* ctx, std::string_view item), void* ctx);
}  // namespace detail

/// Walk the array text `raw` in place: visit(item) sees each element in
/// order until it returns false.  Strings are decoded, numbers verbatim,
/// nested objects/arrays their raw balanced text.  Element views point
/// into `raw`, except a string with a backslash, whose decoded view lives
/// for that one visit.  The whole array (surrounding whitespace allowed,
/// trailing junk not) is checked before the first visit, so a malformed
/// one visits nothing.  True iff `raw` is well formed and no visit
/// returned false.
template <typename Visit>
bool for_each_item(std::string_view raw, Visit&& visit) {
  return detail::walk_items(
      raw,
      [](void* ctx, std::string_view item) {
        return static_cast<bool>(
            (*static_cast<std::remove_reference_t<Visit>*>(ctx))(item));
      },
      &visit);
}

/// Strict finite double: the whole text is one std::from_chars decimal
/// (optional '-', digits, fraction, exponent) -- no whitespace, no '+', no
/// hex -- and the value is finite.  Every artifact reader and CLI flag
/// parses doubles through here, so "nan" and "inf" never reach a report.
std::optional<double> parse_double(std::string_view text);

/// Array of parse_double values; nullopt on anything else.
std::optional<std::vector<double>> parse_double_array(std::string_view raw);

/// Strict unsigned decimal: one or more digits and nothing else -- no
/// sign, no whitespace, no trailing bytes -- with a value <= `max` (pass
/// the narrower field's maximum when the result is narrowed).  Every
/// artifact reader parses unsigned members through here, so "-1" never
/// wraps to 2^64-1 and "4294967300" never truncates to 4.
std::optional<std::uint64_t> parse_u64(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// One unsigned member of a record under its key in the record's flat JSON
/// object.  A record's table of these, in serialization order, is the one
/// place its keys are spelled: append_members writes the record and
/// read_members reads it back.  A table is a C array, or a std::tuple when
/// the members differ in width.
template <typename Record, std::unsigned_integral T>
struct UintMember {
  const char* key;
  T Record::* member;
};

namespace detail {
bool read_u64(const FlatJson& flat, const char* key, std::uint64_t max,
              std::uint64_t* out, std::string* error, std::string_view where);

/// fn(entry) for each entry of `table` in order, until one returns false.
template <typename Table, typename Fn>
bool each_entry(const Table& table, Fn fn) {
  if constexpr (requires { std::tuple_size<Table>::value; }) {
    return std::apply([&](const auto&... e) { return (fn(e) && ...); }, table);
  } else {
    return std::all_of(std::begin(table), std::end(table), fn);
  }
}
}  // namespace detail

/// Append `,"key":value`.
inline void append_member(std::string& out, std::string_view key,
                          std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  numfmt::append_int(out, value);
}

/// Member `key` of `flat` as a parse_u64 value no larger than T holds.  On
/// failure *error (when non-null) is "<where> missing key 'key'" or "bad
/// value '<text>' for key 'key' in <where>", without the `where` part when
/// `where` is empty.
template <std::unsigned_integral T>
bool read_member(const FlatJson& flat, const char* key, T* out,
                 std::string* error, std::string_view where = {}) {
  std::uint64_t v = 0;
  const bool ok = detail::read_u64(flat, key, std::numeric_limits<T>::max(),
                                   &v, error, where);
  if (ok) *out = static_cast<T>(v);
  return ok;
}

/// append_member for each entry of `table`.
template <typename Record, typename Table>
void append_members(std::string& out, const Record& record,
                    const Table& table) {
  detail::each_entry(table, [&](const auto& e) {
    append_member(out, e.key, record.*(e.member));
    return true;
  });
}

/// `{"key":value,...` over a non-empty `table`, left open for the caller's
/// further members and closing brace.
template <typename Record, typename Table>
void open_object(std::string& out, const Record& record, const Table& table) {
  const std::size_t open = out.size();
  append_members(out, record, table);
  out[open] = '{';
}

/// read_member for each entry of `table` in order, up to the first failure.
template <typename Record, typename Table>
bool read_members(const FlatJson& flat, const Table& table, Record& record,
                  std::string* error, std::string_view where = {}) {
  return detail::each_entry(table, [&](const auto& e) {
    return read_member(flat, e.key, &(record.*(e.member)), error, where);
  });
}

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
