#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"

namespace ccd {
namespace {

// 2^53: the edge of the window where every integer is exactly one double.
constexpr double kMaxExactInt = 9007199254740992.0;

// True iff x is an integer the histogram can hold losslessly; -0.0 is
// excluded so a raw-mode min() of -0.0 cannot silently become +0.0.
bool integral_key(double x, std::int64_t* key) {
  if (!(x >= -kMaxExactInt && x <= kMaxExactInt)) return false;  // NaN/inf too
  if (x != std::trunc(x)) return false;
  if (x == 0.0 && std::signbit(x)) return false;
  *key = static_cast<std::int64_t>(x);
  return true;
}

// Exact integer moments of the histogram multiset.  __int128 keeps the
// accumulation integer-exact; the single conversion to double at the end
// rounds exactly once, matching what the sequential double fold produces
// while the running sum stays inside the 2^53 window.
double exact_sum(const ExactHistogram& h) {
  __int128 sum = 0;
  for (const auto& [key, cnt] : h.bins()) {
    sum += static_cast<__int128>(key) * static_cast<__int128>(cnt);
  }
  return static_cast<double>(sum);
}

double exact_sum_sq(const ExactHistogram& h) {
  __int128 sum = 0;
  for (const auto& [key, cnt] : h.bins()) {
    sum += static_cast<__int128>(key) * key * static_cast<__int128>(cnt);
  }
  return static_cast<double>(sum);
}

}  // namespace

void Stats::raw_add(double x) {
  if (samples_.empty() || x < min_) min_ = x;
  if (samples_.empty() || x > max_) max_ = x;
  samples_.push_back(x);
  sum_ += x;
  sum_sq_ += x * x;
  sorted_valid_ = false;
}

void Stats::demote_to_raw() {
  // Materialize the multiset in ascending key order and replay it through
  // the raw accumulators.  For the integer-only prefix the histogram held,
  // the ascending-order double sum equals the arrival-order sum exactly
  // (integer sums in the 2^53 window are order-free), so the demoted
  // accumulator is bit-identical to one that had been raw all along.
  hist_active_ = false;
  samples_.reserve(hist_.total());
  for (const auto& [key, cnt] : hist_.bins()) {
    const double x = static_cast<double>(key);
    for (std::uint64_t i = 0; i < cnt; ++i) raw_add(x);
  }
  hist_.clear();
}

void Stats::add(double x) {
  if (hist_active_) {
    std::int64_t key = 0;
    if (integral_key(x, &key)) {
      hist_.add(key, 1);
      return;
    }
    demote_to_raw();
  }
  raw_add(x);
}

void Stats::add_bin(std::int64_t key, std::uint64_t count) {
  assert(hist_active_);
  hist_.add(key, count);
}

void Stats::merge_from(const Stats& other) {
  if (hist_active_ && other.hist_active_) {
    hist_.merge_from(other.hist_);  // alias-safe
    return;
  }
  if (!other.hist_active_) {
    // Replay other's buffer in its insertion order, exactly as the
    // equivalent add() calls would (this may demote us mid-loop).  `other`
    // may alias `this`: snapshot the count first (samples_ may reallocate
    // mid-loop).
    const std::size_t n = other.samples_.size();
    if (!hist_active_) samples_.reserve(samples_.size() + n);
    for (std::size_t i = 0; i < n; ++i) add(other.samples_[i]);
    return;
  }
  // this raw, other histogram (modes differ, so no aliasing): append
  // other's multiset in ascending key order.
  samples_.reserve(samples_.size() + other.hist_.total());
  for (const auto& [key, cnt] : other.hist_.bins()) {
    const double x = static_cast<double>(key);
    for (std::uint64_t i = 0; i < cnt; ++i) raw_add(x);
  }
}

const ExactHistogram& Stats::histogram() const {
  assert(hist_active_);
  return hist_;
}

const std::vector<double>& Stats::samples() const {
  assert(!hist_active_);
  return samples_;
}

std::size_t Stats::count() const {
  return hist_active_ ? static_cast<std::size_t>(hist_.total())
                      : samples_.size();
}

std::size_t Stats::bytes_retained() const {
  return hist_active_ ? hist_.bytes_retained()
                      : samples_.size() * sizeof(double);
}

void Stats::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Stats::min() const {
  assert(!empty());
  return hist_active_ ? static_cast<double>(hist_.min_key()) : min_;
}

double Stats::max() const {
  assert(!empty());
  return hist_active_ ? static_cast<double>(hist_.max_key()) : max_;
}

double Stats::mean() const {
  assert(!empty());
  const double sum = hist_active_ ? exact_sum(hist_) : sum_;
  return sum / static_cast<double>(count());
}

double Stats::stddev() const {
  assert(!empty());
  const double n = static_cast<double>(count());
  const double m = mean();
  const double sq = hist_active_ ? exact_sum_sq(hist_) : sum_sq_;
  const double var = sq / n - m * m;
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Stats::percentile(double p) const {
  assert(!empty());
  if (hist_active_) {
    // Same linear-interpolation formula as the raw path below, reading
    // ranked values out of the cumulative bin counts; integer-valued
    // doubles make the arithmetic bit-identical across modes.
    if (p <= 0) return static_cast<double>(hist_.min_key());
    if (p >= 100) return static_cast<double>(hist_.max_key());
    const std::uint64_t n = hist_.total();
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double at_lo = static_cast<double>(hist_.value_at_rank(lo));
    if (lo + 1 >= n) return at_lo;
    const double at_hi = static_cast<double>(hist_.value_at_rank(lo + 1));
    return at_lo * (1.0 - frac) + at_hi * frac;
  }
  ensure_sorted();
  if (p <= 0) return sorted_.front();
  if (p >= 100) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

// ---- serialization ---------------------------------------------------------

void append_stats_json(std::string& out, const Stats& s) {
  if (s.histogram_active()) {
    out += "{\"h\":[";
    bool first = true;
    for (const auto& [key, cnt] : s.histogram().bins()) {
      if (!first) out += ',';
      first = false;
      numfmt::append_int(out, key);
      out += ',';
      numfmt::append_int(out, cnt);
    }
    out += "]}";
  } else {
    out += "{\"raw\":";
    jsonu::append_double_array(out, s.samples());
    out += '}';
  }
}

std::string stats_to_json(const Stats& s) {
  std::string out;
  append_stats_json(out, s);
  return out;
}

namespace {

bool fail(std::string* error, const char* what) {
  if (error) *error = what;
  return false;
}

/// A histogram key: an optional sign and decimal digits ("+4" and "004"
/// read as 4), in int64 range.
std::optional<std::int64_t> parse_key(std::string_view text) {
  // from_chars takes '-' but not '+'; "+-4" keeps its '+' and fails.
  if (text.starts_with('+') && !text.starts_with("+-")) text.remove_prefix(1);
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v, 10);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

}  // namespace

bool stats_from_json(std::string_view raw, Stats* into, std::string* error) {
  if (raw.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return fail(error, "stats: empty");
  }
  auto obj = jsonu::FlatJson::parse(raw);
  if (!obj) return fail(error, "stats: not an object");
  if (const auto h = obj->find("h")) {
    // Only a histogram-mode accumulator takes bins: a raw-mode one would
    // expand each count into that many samples.
    if (!into->histogram_active()) {
      return fail(error, "stats: histogram bins for a raw-sample statistic");
    }
    std::size_t tokens = 0;
    bool bad_bin = false;
    std::int64_t key = 0;
    const bool array = jsonu::for_each_item(*h, [&](std::string_view t) {
      if (tokens++ % 2 == 0) {
        const auto k = parse_key(t);
        bad_bin = bad_bin || !k;
        key = k.value_or(0);
      } else if (const auto count = jsonu::parse_u64(t)) {
        if (!bad_bin) into->add_bin(key, *count);
      } else {
        bad_bin = true;
      }
      return true;
    });
    if (!array || tokens % 2 != 0) {
      return fail(error, "stats: bad histogram array");
    }
    if (bad_bin) return fail(error, "stats: bad histogram bin");
    return true;
  }
  if (const auto r = obj->find("raw")) {
    auto xs = jsonu::parse_double_array(*r);
    if (!xs) return fail(error, "stats: bad raw sample array");
    for (double x : *xs) into->add(x);
    return true;
  }
  return fail(error, "stats: missing h/raw member");
}

}  // namespace ccd
