// Algorithm 1 (Section 7.1): anonymous consensus with ECF and a collision
// detector in maj-<>AC, using any wake-up service.  Terminates by CST + 2
// (Theorem 1), tolerating any number of crash failures.
//
// Structure: alternating proposal / veto phases.
//   proposal round: processes advised active broadcast their estimate; a
//     process that hears no collision and at least one estimate adopts the
//     minimum estimate received.
//   veto round: a process that saw a collision or more than one distinct
//     estimate in the preceding proposal round broadcasts a veto; a process
//     that received exactly one distinct estimate, hears no veto and no
//     collision, decides its estimate and halts.
//
// Safety leans on majority completeness: a silent veto round certifies that
// every process received a strict majority of the proposal-round messages,
// and majority sets intersect, so everyone received the SAME single value
// (Lemma 5).  With only half completeness the intersection argument dies --
// exactly the boundary Theorem 6 exploits (see claim E7 in exp/claims.hpp).
#pragma once

#include "consensus/consensus_process.hpp"

namespace ccd {

class Alg1Process final : public ConsensusProcess {
 public:
  explicit Alg1Process(Value initial_value);

  std::optional<Message> on_send(Round round, CmAdvice cm) override;
  void on_receive(Round round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice cm) override;

  Value estimate() const { return estimate_; }

 private:
  enum class Phase { kProposal, kVeto };

  Value estimate_;
  Phase phase_ = Phase::kProposal;
  // Carried from the latest proposal round into the veto round:
  std::size_t proposal_unique_values_ = 0;  ///< |messages_i| = |SET(recv)|
  CdAdvice proposal_cd_ = CdAdvice::kNull;
};

class Alg1Algorithm final : public ConsensusAlgorithm {
 public:
  std::unique_ptr<Process> make_process(const ProcessIdentity& identity,
                                        Value initial_value) const override;
  bool anonymous() const override { return true; }
  const char* name() const override { return "Alg1(maj-<>AC,WS,ECF)"; }
};

}  // namespace ccd
