// A concrete randomized backoff contention manager.
//
// Section 1.3: "One could imagine ... such a service being implemented in a
// real system by a backoff protocol."  This class realizes a wake-up
// service with high probability: each contending process is advised active
// with probability 1/window; on rounds where two or more were active all
// actives double their window (up to a cap); once a round has EXACTLY one
// active process the service locks onto it and advises only it from then on
// (re-electing if it crashes).  Locking makes the WS property hold from the
// lock round onward, so the harness can measure an *emergent* r_wake.
//
// This gives the paper's safety/liveness separation: algorithms that use
// the manager only for liveness stay safe even before stabilization.
#pragma once

#include "cm/contention_manager.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <vector>

namespace ccd {

class BackoffCm final : public ContentionManager {
 public:
  struct Options {
    std::uint64_t seed = 7;
    std::uint32_t initial_window = 1;
    std::uint32_t max_window = 1u << 16;
  };

  explicit BackoffCm(Options opts);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;

  /// No a-priori bound; stabilization is emergent.
  Round stabilization_round() const override { return kNeverRound; }

  /// First round from which exactly one process has been advised active in
  /// every round so far; kNeverRound until the lock happens.
  Round stabilized_at() const { return locked_round_; }

 private:
  Options opts_;
  Rng rng_;
  std::vector<std::uint32_t> window_;
  std::uint32_t locked_process_ = kNoLock;
  Round locked_round_ = kNeverRound;

  static constexpr std::uint32_t kNoLock = ~0u;
};

}  // namespace ccd
