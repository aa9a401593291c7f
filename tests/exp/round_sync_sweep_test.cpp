// The round-sync workload (claim E13 as a sweepable grid) and the
// byte-stability contract of the new ScenarioSpec knobs (id_space,
// sync_rho, sync_round_length): omitted at their defaults, round-tripped
// exactly otherwise.
#include <gtest/gtest.h>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {
namespace {

TEST(RoundSyncWorkload, RunsDeterministicallyAndAggregates) {
  SweepGrid grid;
  grid.base.workload = WorkloadKind::kRoundSync;
  grid.base.n = 8;
  grid.base.sync_rho = 1e-4;
  grid.base.p_deliver = 0.7;  // beacon loss 0.3
  grid.ns = {8, 16};
  grid.seeds_per_cell = 3;
  ASSERT_FALSE(grid.validate().has_value());

  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const auto a = aggregate(grid, run_sweep(grid, one));
  const auto b = aggregate(grid, run_sweep(grid, four));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(aggregates_to_json(grid, a), aggregates_to_json(grid, b));

  for (const CellAggregate& cell : a) {
    EXPECT_EQ(cell.sync_runs, 3u);
    EXPECT_EQ(cell.mh_runs, 0u);
    EXPECT_FALSE(cell.sync_skew_us.empty());
    EXPECT_FALSE(cell.sync_bound_us.empty());
    EXPECT_FALSE(cell.sync_agreement.empty());
    // The synchronizer's analytic bound must hold (claim E13 checks it
    // for every measured regime).
    EXPECT_EQ(cell.sync_bound_violations, 0u);
    // The sync block reaches the JSON report.
  }
  EXPECT_NE(aggregates_to_json(grid, a).find("\"sync\":{"),
            std::string::npos);
}

TEST(RoundSyncWorkload, RunScenarioFillsOnlySyncGroup) {
  ScenarioSpec spec;
  spec.workload = WorkloadKind::kRoundSync;
  spec.n = 8;
  spec.seed = 99;
  const ScenarioOutcome outcome = WorldFactory::run_scenario(spec);
  EXPECT_TRUE(outcome.sync.ran);
  EXPECT_FALSE(outcome.mh.ran);
  EXPECT_GT(outcome.sync.skew_bound, 0.0);
  EXPECT_GE(outcome.sync.round_agreement, 0.0);
  EXPECT_LE(outcome.sync.round_agreement, 1.0);
}

TEST(SpecKnobs, LatePrKnobsAreOmittedAtDefaultsAndRoundTripOtherwise) {
  // Defaults: absent from the JSON, so pre-existing cell keys keep their
  // exact bytes (the golden-report guarantee depends on this).
  ScenarioSpec defaults;
  EXPECT_EQ(defaults.to_json().find("id_space"), std::string::npos);
  EXPECT_EQ(defaults.to_json().find("sync_rho"), std::string::npos);
  EXPECT_EQ(defaults.to_json().find("sync_round_length"), std::string::npos);

  // Non-defaults: emitted and inverted exactly.
  ScenarioSpec spec;
  spec.workload = WorkloadKind::kRoundSync;
  spec.id_space = 4096;
  spec.sync_rho = 1e-3;
  spec.sync_round_length = 0.01;
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"id_space\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"round-sync\""), std::string::npos);
  auto parsed = ScenarioSpec::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

}  // namespace
}  // namespace ccd::exp
