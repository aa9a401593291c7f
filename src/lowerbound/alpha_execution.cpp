#include "lowerbound/alpha_execution.hpp"

#include "cd/oracle_detector.hpp"
#include "cm/leader_election.hpp"
#include "cm/no_cm.hpp"
#include "consensus/harness.hpp"
#include "fault/failure_adversary.hpp"
#include "net/partition_adversary.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {

AlphaResult run_alpha(const ConsensusAlgorithm& algorithm, std::size_t n,
                      Value v, Round rounds, std::uint64_t id_base) {
  // The alpha loss rule coincides with a one-group PartitionAdversary:
  // lone in-group broadcaster heard by all, contention leaves only
  // self-delivery.
  PartitionAdversary::Options loss_opts;
  loss_opts.split = static_cast<std::uint32_t>(n);
  loss_opts.heal_round = kNeverRound;

  LeaderElectionService::Options cm_opts;
  cm_opts.r_lead = 1;
  cm_opts.leader = 0;  // min(P)
  cm_opts.adapt_on_crash = false;

  World world = make_world(
      algorithm, std::vector<Value>(n, v),
      std::make_unique<LeaderElectionService>(cm_opts),
      std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                       make_truthful_policy()),
      std::make_unique<PartitionAdversary>(loss_opts),
      std::make_unique<NoFailures>(), id_base);

  // Stepped, not run: the full bbc prefix is kept past every decision.
  LaneEngine engine(std::move(world), {.record_rounds = true});
  for (Round r = 0; r < rounds; ++r) engine.step();

  AlphaResult result;
  result.bbc = engine.log().transmission().basic_broadcast_sequence(rounds);
  result.all_decided = true;
  for (ProcessId i = 0; i < n; ++i) {
    if (!engine.decided(i)) {
      result.all_decided = false;
    } else {
      result.decided_value = engine.decision(i);
    }
  }
  for (const DecisionRecord& d : engine.log().decisions()) {
    if (d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  return result;
}

BetaResult run_beta(const ConsensusAlgorithm& algorithm, std::size_t n,
                    Value v, Round rounds) {
  UnrestrictedLoss::Options loss_opts;
  loss_opts.mode = UnrestrictedLoss::Mode::kDropOthers;

  World world = make_world(
      algorithm, std::vector<Value>(n, v), std::make_unique<NoCm>(),
      std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                       make_truthful_policy()),
      std::make_unique<UnrestrictedLoss>(loss_opts),
      std::make_unique<NoFailures>());

  LaneEngine engine(std::move(world), {.record_rounds = true});
  for (Round r = 0; r < rounds; ++r) engine.step();

  BetaResult result;
  result.binary_broadcast.reserve(rounds);
  for (Round r = 1; r <= rounds; ++r) {
    result.binary_broadcast.push_back(
        engine.log().transmission().at(r).broadcaster_count > 0);
  }
  result.all_decided = true;
  for (ProcessId i = 0; i < n; ++i) {
    if (!engine.decided(i)) {
      result.all_decided = false;
    } else {
      result.decided_value = engine.decision(i);
    }
  }
  for (const DecisionRecord& d : engine.log().decisions()) {
    if (d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  return result;
}

}  // namespace ccd
