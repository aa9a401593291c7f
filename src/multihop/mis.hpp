// Clusterhead election as a maximal independent set (Section 1.1's local
// coordination category, cf. Moscibroda-Wattenhofer [56]), built on the
// multihop model -- and on collision detection.
//
// Luby-style randomized protocol in two-round phases:
//   candidacy round: every undecided node broadcasts a candidacy mark with
//     probability p (adaptive: halved after hearing a collision, the
//     channel's congestion signal; restored slowly).
//   announce round: freshly and previously elected heads broadcast a head
//     mark; an undecided node that receives a head mark -- or a collision
//     report, which with an ACCURATE detector proves a broadcasting (i.e.
//     head) neighbour exists -- becomes dominated and exits: it is dormant
//     (Process::dormant()) from then on, so the engine skips its rounds
//     unless a neighbour broadcasts.
//
// The paper's thesis in miniature: with a COMPLETE and accurate detector a
// candidate becomes head only if it heard nothing in its candidacy round,
// which certifies no neighbouring candidate broadcast -- so two adjacent
// heads are impossible and independence is DETERMINISTIC, not
// probabilistic.  Weaken the detector to zero-complete with a prefer-null
// policy and adjacent candidates can both hear silence (each lost exactly
// the other's mark): independence breaks.  mis_test.cpp demonstrates both
// directions; the detector's completeness level is doing the safety work.
#pragma once

#include "model/process.hpp"
#include "util/rng.hpp"

namespace ccd {

class MisProcess final : public Process {
 public:
  enum class State : std::uint8_t { kUndecided, kHead, kDominated };

  struct Options {
    double p_candidate = 0.5;
    double p_min = 0.05;
    std::uint64_t seed = 1;
  };

  explicit MisProcess(Options options);

  std::optional<Message> on_send(Round round, CmAdvice cm) override;
  void on_receive(Round round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice cm) override;

  State state() const { return state_; }
  bool settled() const { return state_ != State::kUndecided; }

 private:
  static bool is_candidacy_round(Round r) { return r % 2 == 1; }

  Options options_;
  Rng rng_;
  State state_ = State::kUndecided;
  double p_current_;
  bool candidate_this_phase_ = false;
};

}  // namespace ccd
