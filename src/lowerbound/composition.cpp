#include "lowerbound/composition.hpp"

#include "cd/oracle_detector.hpp"
#include "cm/adversarial_cm.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "net/partition_adversary.hpp"

namespace ccd {

CompositionOutcome run_composition(const ConsensusAlgorithm& algorithm,
                                   const CompositionConfig& config) {
  const std::size_t n = config.group_size;
  std::vector<Value> initial_values(2 * n, config.value_a);
  for (std::size_t i = n; i < 2 * n; ++i) initial_values[i] = config.value_b;

  PartitionAdversary::Options loss_opts;
  loss_opts.split = static_cast<std::uint32_t>(n);
  loss_opts.heal_round = config.heal ? config.k + 1 : kNeverRound;

  World world = make_world(
      algorithm, std::move(initial_values),
      std::make_unique<TwoGroupMaxLs>(static_cast<std::uint32_t>(n),
                                      config.k),
      std::make_unique<OracleDetector>(config.spec,
                                       make_prefer_null_policy()),
      std::make_unique<PartitionAdversary>(loss_opts),
      std::make_unique<NoFailures>(), config.id_base);

  const Round cst = world.cst();
  LaneEngine engine(std::move(world), {.record_rounds = true});
  const RunResult result = engine.run(config.max_rounds);
  CompositionOutcome outcome;
  outcome.summary = summarize_consensus(cst, result, engine.log(),
                                        engine.world().initial_values);

  for (const DecisionRecord& d : engine.log().decisions()) {
    if (d.process < n) {
      outcome.group_a_value = d.value;
      if (d.round > outcome.group_a_last_decision) {
        outcome.group_a_last_decision = d.round;
      }
    } else {
      outcome.group_b_value = d.value;
      if (d.round > outcome.group_b_last_decision) {
        outcome.group_b_last_decision = d.round;
      }
    }
  }
  outcome.groups_disagree = outcome.group_a_value != kNoValue &&
                            outcome.group_b_value != kNoValue &&
                            outcome.group_a_value != outcome.group_b_value;
  return outcome;
}

}  // namespace ccd
