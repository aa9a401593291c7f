// A deliberately naive protocol that tries to solve consensus WITHOUT
// consulting its collision detector -- the foil for Theorem 4's
// impossibility result (and Theorem 5's, via Lemma 1).
//
// Behaviour: active processes broadcast their estimate; a process decides
// the minimum estimate it ever receives; a process that hears nothing for
// `patience` consecutive rounds gives up waiting and decides its own value
// (some timeout is forced: without collision detection, silence and total
// loss are indistinguishable, so waiting forever sacrifices termination).
//
// Claim E6 (exp/claims.hpp) checks the dichotomy the theorem formalizes:
// under a partitioned-then-healed execution (legal under ECF + a leader
// election service) this protocol violates agreement, while the
// paper's real algorithms, stripped of detector information (NoCD), simply
// never terminate.  No protocol can win: the adversary composes two
// decided executions into one.
#pragma once

#include "consensus/consensus_process.hpp"

namespace ccd {

class NaiveNoCdProcess final : public ConsensusProcess {
 public:
  NaiveNoCdProcess(Value initial_value, Round patience);

  std::optional<Message> on_send(Round round, CmAdvice cm) override;
  void on_receive(Round round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice cm) override;

 private:
  Value estimate_;
  Round patience_;
  Round silent_rounds_ = 0;
};

class NaiveNoCdAlgorithm final : public ConsensusAlgorithm {
 public:
  explicit NaiveNoCdAlgorithm(Round patience) : patience_(patience) {}

  std::unique_ptr<Process> make_process(const ProcessIdentity& identity,
                                        Value initial_value) const override;
  bool anonymous() const override { return true; }
  const char* name() const override { return "NaiveNoCd"; }

 private:
  Round patience_;
};

}  // namespace ccd
