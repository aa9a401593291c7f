// Deterministic, seedable random number generation.
//
// All stochastic behaviour in the simulator (loss adversaries, backoff
// contention managers, random crash schedules, random-legal detector
// policies) flows through Rng so that every execution is reproducible from a
// single 64-bit seed.  We use xoshiro256** seeded via splitmix64, which is
// fast, high quality, and has no global state.
#pragma once

#include <array>
#include <cstdint>

namespace ccd {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix (useful to derive independent stream seeds).
std::uint64_t hash_mix(std::uint64_t x);

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.  The
/// per-draw members are defined inline below: processes, crash adversaries
/// and capture delivery draw from it for every process every round.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xc0ffee123456789ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire rejection; bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Lemire's nearly-divisionless method with rejection for exact
    // uniformity.
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Derive an independent child generator (for per-process streams).
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace ccd
