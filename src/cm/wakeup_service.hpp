// Wake-up service (Property 2): after an unknown round r_wake, exactly one
// process is advised active per round.  Unlike a leader election service the
// active process may CHANGE between rounds; the upper bounds in Section 7
// only assume WS, so our default post-stabilization behaviour can rotate.
//
// Before r_wake the service's behaviour is unconstrained; we expose several
// adversarial pre-stabilization schedules so tests can stress algorithms
// against the full envelope.
#pragma once

#include "cm/contention_manager.hpp"
#include "util/rng.hpp"

namespace ccd {

class WakeupService final : public ContentionManager {
 public:
  enum class PreStabilization {
    kAllActive,     ///< everyone told active (maximal contention)
    kAllPassive,    ///< nobody told active (starvation until r_wake)
    kRandomSubset,  ///< iid coin per process per round
    kAlternating,   ///< all-active / all-passive alternating rounds
  };
  enum class PostStabilization {
    kMinAlive,      ///< lowest-index non-crashed process (adapts to crashes)
    kRotateAlive,   ///< round-robin over non-crashed processes (WS, not LS)
    kFixedMin,      ///< lowest index of the full set even if crashed
                    ///< (legal per the formal definition; kills liveness --
                    ///<  used by adversarial tests)
  };

  struct Options {
    Round r_wake = 1;
    PreStabilization pre = PreStabilization::kAllActive;
    PostStabilization post = PostStabilization::kMinAlive;
    std::uint64_t seed = 1;
  };

  explicit WakeupService(Options opts);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return opts_.r_wake; }
  const char* name() const override { return "WakeupService"; }

 private:
  Options opts_;
  Rng rng_;
  std::uint32_t rotate_cursor_ = 0;
};

}  // namespace ccd
