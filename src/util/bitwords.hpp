// Bit words: the one representation of a process set.  A set over n
// processes is ceil(n/64) `uint64_t` words, process i at bit i % 64 of
// word i / 64, and every bit at or above n is zero.  The round engine keeps
// its masks (alive, participating, sent, crash marks, adjacency rows) in
// this form, and the adversary seams -- contention managers, failure and
// loss adversaries, the collision detector -- read and write it directly.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace ccd {

/// Words holding n bits.
constexpr std::size_t word_count(std::size_t n) { return (n + 63) / 64; }

/// Iterate the set bits of `word` (ascending), calling fn(base + bit).
template <typename Fn>
inline void for_each_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word) {
    fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

/// Set bits of `word`.  A SWAR count rather than std::popcount: the build
/// targets baseline x86-64 (no -mpopcnt), where std::popcount becomes a
/// libgcc call.
inline std::uint32_t bit_count(std::uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ull;
  word = (word & 0x3333333333333333ull) + ((word >> 2) & 0x3333333333333333ull);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<std::uint32_t>((word * 0x0101010101010101ull) >> 56);
}

/// Set bits of the row `a & b` over `words` words.
inline std::uint32_t and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t words) {
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < words; ++w) count += bit_count(a[w] & b[w]);
  return count;
}

/// Index of the k-th (0-based, ascending) set bit of the row `a & b`; k
/// must be below the row's bit count (the scan stops at that bit).
inline std::size_t nth_set_bit(const std::uint64_t* a, const std::uint64_t* b,
                               std::uint64_t k) {
  for (std::size_t w = 0;; ++w) {
    std::uint64_t word = a[w] & b[w];
    const std::uint32_t count = bit_count(word);
    if (k < count) {
      for (; k > 0; --k) word &= word - 1;
      return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    }
    k -= count;
  }
}

/// Set bit i of a word row.
inline void set_bit(std::span<std::uint64_t> words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// Read-only view of a process set: `words` holds its n bits.  A view
/// borrows its words; a seam handed one reads it during the call only.
class BitView {
 public:
  BitView() = default;
  BitView(std::span<const std::uint64_t> words, std::size_t n)
      : words_(words), n_(n) {
    assert(words.size() == word_count(n));
  }

  std::size_t size() const { return n_; }
  std::span<const std::uint64_t> words() const { return words_; }

  bool test(std::size_t i) const {
    assert(i < n_);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }
  std::uint32_t count() const {
    std::uint32_t c = 0;
    for (std::uint64_t w : words_) c += bit_count(w);
    return c;
  }
  /// Lowest member, or size() when the set is empty.
  std::size_t first() const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w]) {
        return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
      }
    }
    return n_;
  }
  /// The k-th member (0-based, ascending); k must be below count().
  std::size_t nth(std::uint64_t k) const {
    return nth_set_bit(words_.data(), words_.data(), k);
  }
  /// fn(i) for every member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for_each_bit(words_[w], w * 64, fn);
    }
  }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t n_ = 0;
};

/// An owned process set, for callers that build one rather than read the
/// engine's rows.  Converts to its BitView.
class BitSet {
 public:
  explicit BitSet(std::size_t n, bool all = false)
      : words_(word_count(n), 0), n_(n) {
    if (all) {
      for (std::size_t i = 0; i < n; ++i) set(i);
    }
  }
  BitSet(std::initializer_list<bool> bits) : BitSet(bits.size()) {
    std::size_t i = 0;
    for (bool b : bits) set(i++, b);
  }

  void set(std::size_t i, bool value = true) {
    assert(i < n_);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    words_[i / 64] = value ? words_[i / 64] | bit : words_[i / 64] & ~bit;
  }
  bool test(std::size_t i) const { return view().test(i); }
  std::uint32_t count() const { return view().count(); }
  std::size_t size() const { return n_; }
  std::span<std::uint64_t> words() { return words_; }

  BitView view() const { return {words_, n_}; }
  operator BitView() const { return view(); }
  friend bool operator==(const BitSet&, const BitSet&) = default;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t n_;
};

}  // namespace ccd
