#include "util/flat_json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "util/numfmt.hpp"

namespace ccd::jsonu {

std::string format_double(double d) {
  std::string out;
  numfmt::append_shortest(out, d);
  return out;
}

bool skip_quoted(std::string_view text, std::size_t& i) {
  ++i;
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\' && i + 1 < text.size()) ++i;
    ++i;
  }
  if (i >= text.size()) return false;
  ++i;  // closing quote
  return true;
}

namespace {

void skip_ws(std::string_view text, std::size_t& i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
}

/// Advance `i` past the balanced `open`...`close` text starting at `i`
/// (which must point at `open`); strings inside are skipped whole.  False
/// on unbalanced input.
bool skip_balanced(std::string_view text, std::size_t& i, char open,
                   char close) {
  int depth = 0;
  while (i < text.size()) {
    if (text[i] == '"') {
      if (!skip_quoted(text, i)) return false;
      continue;
    }
    if (text[i] == open) {
      ++depth;
    } else if (text[i] == close && --depth == 0) {
      ++i;  // consume the closer
      return true;
    }
    ++i;
  }
  return false;
}

/// One value starting at `i`, which a bare token ends at ',', `closer` or
/// whitespace: a string (its text between the quotes, `escaped` when it
/// holds a backslash), a balanced array or object, or a bare token.  False
/// on malformed input.
bool scan_value(std::string_view text, std::size_t& i, char closer,
                std::string_view& value, bool& escaped) {
  const std::size_t start = i;
  escaped = false;
  if (i < text.size() && text[i] == '"') {
    if (!skip_quoted(text, i)) return false;
    value = text.substr(start + 1, i - start - 2);
    escaped = value.find('\\') != std::string_view::npos;
    return true;
  }
  if (i < text.size() && (text[i] == '[' || text[i] == '{')) {
    const bool array = text[i] == '[';
    if (!skip_balanced(text, i, array ? '[' : '{', array ? ']' : '}')) {
      return false;
    }
  } else {
    while (i < text.size() && text[i] != ',' && text[i] != closer &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i == start) return false;
  }
  value = text.substr(start, i - start);
  return true;
}

/// The text of a string that holds backslashes, each replaced by the byte
/// after it.
void decode_into(std::string_view escaped, std::string& out) {
  out.clear();
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\') ++i;  // scan_value saw a byte after each one
    out += escaped[i];
  }
}

/// `text` as one `open`...`close` container, whitespace allowed around
/// it and its elements: element(i) reads one element starting at `i` and
/// advances past it.  False on malformed input or a false element().
template <typename Element>
bool scan_container(std::string_view text, char open, char close,
                    Element&& element) {
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != open) return false;
  ++i;
  skip_ws(text, i);
  bool more = i >= text.size() || text[i] != close;
  while (more) {
    skip_ws(text, i);
    if (!element(i)) return false;
    skip_ws(text, i);
    more = i < text.size() && text[i] == ',';
    if (!more && (i >= text.size() || text[i] != close)) return false;
    if (more) ++i;
  }
  ++i;  // consume the closer
  skip_ws(text, i);
  return i == text.size();  // no trailing junk
}

/// Array of parse(item) values; nullopt on anything else.
template <typename T, typename Parse>
std::optional<std::vector<T>> parse_array(std::string_view raw, Parse parse) {
  std::vector<T> out;
  if (!for_each_item(raw, [&](std::string_view item) {
        const std::optional<T> v = parse(item);
        if (v) out.push_back(*v);
        return v.has_value();
      })) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

std::optional<FlatJson> FlatJson::parse(std::string_view text) {
  FlatJson out;
  // A key or string value with escapes is read from a decoded copy.
  auto decoded = [&out](std::string_view view, bool escaped) {
    if (!escaped) return view;
    out.decoded_.push_back(std::make_unique<std::string>());
    decode_into(view, *out.decoded_.back());
    return std::string_view(*out.decoded_.back());
  };
  auto member = [&](std::size_t& i) {
    std::string_view key, value;
    bool escaped = false;
    if (i >= text.size() || text[i] != '"' ||
        !scan_value(text, i, '}', key, escaped)) {
      return false;
    }
    key = decoded(key, escaped);
    skip_ws(text, i);
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws(text, i);
    if (!scan_value(text, i, '}', value, escaped)) return false;
    value = decoded(value, escaped);
    // Sorted insert; a repeated key takes the later value.
    auto at = std::lower_bound(
        out.members.begin(), out.members.end(), key,
        [](const Member& m, std::string_view k) { return m.key < k; });
    if (at != out.members.end() && at->key == key) {
      at->value = value;
    } else {
      out.members.insert(at, Member{key, value});
    }
    return true;
  };
  if (!scan_container(text, '{', '}', member)) return std::nullopt;
  return out;
}

std::optional<std::string_view> FlatJson::find(std::string_view key) const {
  auto at = std::lower_bound(
      members.begin(), members.end(), key,
      [](const Member& m, std::string_view k) { return m.key < k; });
  if (at == members.end() || at->key != key) return std::nullopt;
  return at->value;
}

namespace detail {

bool walk_items(std::string_view raw,
                bool (*visit)(void* ctx, std::string_view item), void* ctx) {
  // The first pass checks the whole array, the second visits.
  std::string decoded;
  for (const bool visiting : {false, true}) {
    if (!scan_container(raw, '[', ']', [&](std::size_t& i) {
          std::string_view item;
          bool escaped = false;
          if (!scan_value(raw, i, ']', item, escaped)) return false;
          if (!visiting) return true;
          if (escaped) {
            decode_into(item, decoded);
            item = decoded;
          }
          return visit(ctx, item);
        })) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

std::optional<std::vector<double>> parse_double_array(std::string_view raw) {
  return parse_array<double>(raw, parse_double);
}

std::optional<double> parse_double(std::string_view text) {
  // from_chars takes no leading whitespace or '+', and chars_format::general
  // stops at the 'x' of a hex prefix, which the stop check rejects.
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max) {
  // from_chars takes no sign or whitespace for an unsigned target and
  // reports overflow as result_out_of_range.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v, 10);
  if (ec != std::errc() || stop != end || v > max) return std::nullopt;
  return v;
}

std::optional<std::vector<std::uint64_t>> parse_u64_array(
    std::string_view raw, std::uint64_t max) {
  return parse_array<std::uint64_t>(
      raw, [max](std::string_view item) { return parse_u64(item, max); });
}

std::string fingerprint_to_hex(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> fingerprint_from_hex(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t fp = 0;
  for (char c : s) {
    fp <<= 4;
    if (c >= '0' && c <= '9') {
      fp |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      fp |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return fp;
}

void append_double_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    numfmt::append_shortest(out, xs[i]);
  }
  out += ']';
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"";
  return out;
}

}  // namespace ccd::jsonu
