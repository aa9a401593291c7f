// Alpha and beta executions -- the building blocks of the Section 8 lower
// bounds.
//
// An alpha execution alpha_P(v) (Definition 24) runs an algorithm with
// every process starting at value v, a maximal leader election service
// fixed on min(P) from round 1, a complete-and-accurate detector, no
// failures, and the canonical loss rule: a lone broadcaster is heard by
// all; under contention every broadcaster hears only itself.
//
// A beta execution beta(v) (Theorem 9) runs an anonymous algorithm with
// every process at value v, NO contention manager, a perfect detector, and
// total loss: nobody ever hears anyone but themselves.  All processes act
// identically, so each round is summarized by one bit: broadcast/silence.
#pragma once

#include <optional>
#include <vector>

#include "engine/lane_engine.hpp"
#include "model/process.hpp"
#include "model/traces.hpp"

namespace ccd {

struct AlphaResult {
  std::vector<BroadcastCount> bbc;  ///< basic broadcast count sequence
  Round last_decision_round = 0;    ///< 0 if nobody decided
  bool all_decided = false;
  Value decided_value = kNoValue;
};

/// Run alpha_P(v) for `rounds` rounds with |P| = n.
AlphaResult run_alpha(const ConsensusAlgorithm& algorithm, std::size_t n,
                      Value v, Round rounds, std::uint64_t id_base = 0);

struct BetaResult {
  std::vector<bool> binary_broadcast;  ///< bit r-1: did round r broadcast?
  Round last_decision_round = 0;
  bool all_decided = false;
  Value decided_value = kNoValue;
};

/// Run beta(v) for `rounds` rounds with n processes.
BetaResult run_beta(const ConsensusAlgorithm& algorithm, std::size_t n,
                    Value v, Round rounds);

}  // namespace ccd
