#include "util/flat_json.hpp"

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

bool skip_quoted(const std::string& text, std::size_t& i) {
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

/// Capture balanced `open`...`close` raw text starting at `i` (which must
/// point at `open`); strings inside are skipped whole.  Returns the raw
/// text including the delimiters and advances `i` past the closer, or
/// nullopt on unbalanced input.
std::optional<std::string> capture_balanced(const std::string& text,
                                            std::size_t& i, char open,
                                            char close) {
  const std::size_t start = i;
  int depth = 0;
  while (i < text.size()) {
    if (text[i] == '"') {
      if (!skip_quoted(text, i)) return std::nullopt;
      continue;
    }
    if (text[i] == open) {
      ++depth;
    } else if (text[i] == close) {
      if (--depth == 0) {
        ++i;  // consume the closer
        return text.substr(start, i - start);
      }
    }
    ++i;
  }
  return std::nullopt;  // unbalanced
}

}  // namespace

std::optional<FlatJson> FlatJson::parse(const std::string& text) {
  FlatJson out;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  auto parse_string = [&]() -> std::optional<std::string> {
    if (i >= text.size() || text[i] != '"') return std::nullopt;
    ++i;
    std::string s;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;  // unescape
      s += text[i++];
    }
    if (i >= text.size()) return std::nullopt;
    ++i;  // closing quote
    return s;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return std::nullopt;
  ++i;
  auto finish = [&]() -> std::optional<FlatJson> {
    ++i;  // consume '}'
    skip_ws();
    if (i != text.size()) return std::nullopt;  // trailing junk
    return out;
  };
  skip_ws();
  if (i < text.size() && text[i] == '}') return finish();  // empty object
  while (true) {
    skip_ws();
    auto key = parse_string();
    if (!key) return std::nullopt;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return std::nullopt;
    ++i;
    skip_ws();
    if (i < text.size() && text[i] == '"') {
      auto value = parse_string();
      if (!value) return std::nullopt;
      out.members[*key] = *value;
    } else if (i < text.size() && text[i] == '[') {
      auto raw = capture_balanced(text, i, '[', ']');
      if (!raw) return std::nullopt;
      out.members[*key] = *raw;
    } else if (i < text.size() && text[i] == '{') {
      auto raw = capture_balanced(text, i, '{', '}');
      if (!raw) return std::nullopt;
      out.members[*key] = *raw;
    } else {
      std::size_t start = i;
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      if (i == start) return std::nullopt;
      out.members[*key] = text.substr(start, i - start);
    }
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return finish();
    return std::nullopt;
  }
}

std::optional<std::vector<std::string>> parse_array_items(
    const std::string& raw) {
  std::vector<std::string> items;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i]))) {
      ++i;
    }
  };
  skip_ws();
  if (i >= raw.size() || raw[i] != '[') return std::nullopt;
  ++i;
  skip_ws();
  if (i < raw.size() && raw[i] == ']') {
    ++i;
    skip_ws();
    if (i != raw.size()) return std::nullopt;  // trailing junk
    return items;
  }
  while (true) {
    skip_ws();
    if (i >= raw.size()) return std::nullopt;
    if (raw[i] == '"') {
      std::string s;
      ++i;
      while (i < raw.size() && raw[i] != '"') {
        if (raw[i] == '\\' && i + 1 < raw.size()) ++i;
        s += raw[i++];
      }
      if (i >= raw.size()) return std::nullopt;
      ++i;
      items.push_back(std::move(s));
    } else if (raw[i] == '{') {
      auto obj = capture_balanced(raw, i, '{', '}');
      if (!obj) return std::nullopt;
      items.push_back(std::move(*obj));
    } else if (raw[i] == '[') {
      auto arr = capture_balanced(raw, i, '[', ']');
      if (!arr) return std::nullopt;
      items.push_back(std::move(*arr));
    } else {
      const std::size_t start = i;
      while (i < raw.size() && raw[i] != ',' && raw[i] != ']' &&
             !std::isspace(static_cast<unsigned char>(raw[i]))) {
        ++i;
      }
      if (i == start) return std::nullopt;
      items.push_back(raw.substr(start, i - start));
    }
    skip_ws();
    if (i < raw.size() && raw[i] == ',') {
      ++i;
      continue;
    }
    if (i < raw.size() && raw[i] == ']') {
      ++i;
      skip_ws();
      if (i != raw.size()) return std::nullopt;  // trailing junk
      return items;
    }
    return std::nullopt;
  }
}

std::optional<std::vector<double>> parse_double_array(const std::string& raw) {
  auto items = parse_array_items(raw);
  if (!items) return std::nullopt;
  std::vector<double> out;
  out.reserve(items->size());
  for (const std::string& item : *items) {
    auto v = parse_double(item);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
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
    const std::string& raw, std::uint64_t max) {
  auto items = parse_array_items(raw);
  if (!items) return std::nullopt;
  std::vector<std::uint64_t> out;
  out.reserve(items->size());
  for (const std::string& item : *items) {
    auto v = parse_u64(item, max);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
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
