// Lane/scalar differential property test: the batched LaneEngine's
// acceptance gate.  A seeded random-ScenarioSpec generator draws specs
// across every axis the engine executes (topology x workload x channel x
// scope x fault x CM/CD x loss x policy x chaos), builds a single-cell
// sweep around each, and runs it with lanes ON and lanes OFF.  The two
// result sets must be indistinguishable:
//
//   * the JSON and CSV reports are byte-identical, and
//   * every run's EngineCounters are exactly equal
//
// -- i.e. the lane path is not "statistically equivalent", it is the SAME
// execution.  Any divergence in RNG stream discipline, component call
// order, crash-point semantics, delivery multiset order, termination
// accounting or counter increment sites shows up here as a spec JSON the
// failure message prints verbatim for replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "util/rng.hpp"

namespace ccd::exp {
namespace {

template <typename E>
E pick(Rng& rng, std::initializer_list<E> choices) {
  return *(choices.begin() + rng.below(choices.size()));
}

/// Draw a random but valid spec.  Axis weights keep the sweep broad while
/// bounding runtime: small n dominates, the occasional 33/64 exercises
/// multi-word process masks.
ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.workload =
      pick(rng, {WorkloadKind::kConsensus, WorkloadKind::kConsensus,
                 WorkloadKind::kConsensus, WorkloadKind::kFlood,
                 WorkloadKind::kMis, WorkloadKind::kMisThenConsensus});
  if (spec.workload == WorkloadKind::kConsensus) {
    spec.topology =
        pick(rng, {TopologyKind::kSingleHop, TopologyKind::kSingleHop,
                   TopologyKind::kSingleHop, TopologyKind::kLine,
                   TopologyKind::kRing, TopologyKind::kGrid,
                   TopologyKind::kRandomGeometric});
  } else {
    spec.topology = pick(rng, {TopologyKind::kLine, TopologyKind::kRing,
                               TopologyKind::kGrid, TopologyKind::kGrid,
                               TopologyKind::kRandomGeometric});
  }
  spec.n = pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 16u, 33u,
                      64u});
  spec.alg = pick(rng, {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                        AlgKind::kAlg4, AlgKind::kNaive});
  spec.detector =
      pick(rng, {DetectorKind::kAC, DetectorKind::kMajAC,
                 DetectorKind::kHalfAC, DetectorKind::kZeroAC,
                 DetectorKind::kOAC, DetectorKind::kMajOAC,
                 DetectorKind::kHalfOAC, DetectorKind::kZeroOAC,
                 DetectorKind::kNoCd, DetectorKind::kNoAcc});
  spec.policy =
      pick(rng, {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                 PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                 PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal});
  spec.cm = pick(rng, {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader,
                       CmKind::kBackoff});
  spec.loss = pick(rng, {LossKind::kNoLoss, LossKind::kEcf,
                         LossKind::kProbabilistic, LossKind::kUnrestricted});
  spec.fault = pick(rng, {FaultKind::kNone, FaultKind::kRandomCrash,
                          FaultKind::kRandomCrash, FaultKind::kScheduled});
  if (spec.fault == FaultKind::kScheduled) {
    // Both crash points in one deterministic schedule; process ids are
    // reduced mod n at factory time by the named generators, but an
    // explicit list must stay in range itself.
    spec.crash_schedule = {
        {2, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kAfterSend},
        {4, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kBeforeSend},
    };
  }
  spec.init = pick(rng, {InitKind::kRandom, InitKind::kSplit,
                         InitKind::kAllSame});
  spec.chaos = pick(rng, {ChaosKind::kCalm, ChaosKind::kChaotic});
  spec.num_values = pick(rng, {2ull, 4ull, 16ull, 32ull});
  spec.cst_target = static_cast<Round>(1 + rng.below(10));
  spec.p_deliver = 0.3 + 0.1 * static_cast<double>(rng.below(8));
  spec.spurious_p = 0.1 * static_cast<double>(rng.below(9));
  spec.crash_p = 0.02 + 0.02 * static_cast<double>(rng.below(5));
  // Cap never-deciding cells (NoCD / naive / unrestricted) well below the
  // derived default budget; equivalence is just as observable at 60 rounds.
  spec.max_rounds = static_cast<Round>(30 + rng.below(31));
  return spec;
}

struct SweepResult {
  std::string json;
  std::string csv;
  std::vector<obs::EngineCounters> counters;
};

SweepResult run(const SweepGrid& grid, bool lanes, unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  options.lanes = lanes;
  const std::vector<RunRecord> records = run_sweep(grid, options);
  SweepResult result;
  const auto cells = aggregate(grid, records);
  result.json = aggregates_to_json(grid, cells);
  result.csv = aggregates_to_csv(cells);
  result.counters.reserve(records.size());
  for (const RunRecord& record : records) {
    result.counters.push_back(record.perf.engine);
  }
  return result;
}

TEST(LaneDifferential, RandomSpecsLaneVsScalarByteIdentical) {
  constexpr int kSpecs = 220;
  Rng rng(0x1a9e5u);
  for (int i = 0; i < kSpecs; ++i) {
    SweepGrid grid;
    grid.base = random_spec(rng);
    // Mostly small cells; occasionally straddle the 64-lane block boundary.
    const std::uint32_t seeds =
        pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 8u, 8u, 13u, 65u});
    grid.seeds_per_cell = seeds;
    grid.grid_seed = rng();
    ASSERT_FALSE(grid.validate().has_value())
        << *grid.validate() << "\nspec: " << grid.base.to_json();
    // Alternate single- and multi-threaded pools: lane blocks must be
    // byte-stable under work stealing exactly like scalar runs.
    const unsigned threads = (i % 3 == 0) ? 3 : 1;
    const SweepResult lane = run(grid, /*lanes=*/true, threads);
    const SweepResult scalar = run(grid, /*lanes=*/false, threads);
    ASSERT_EQ(lane.json, scalar.json)
        << "lane/scalar JSON diverged for spec " << i << ":\n"
        << grid.base.to_json() << "\nseeds_per_cell=" << seeds
        << " grid_seed=" << grid.grid_seed;
    ASSERT_EQ(lane.csv, scalar.csv)
        << "lane/scalar CSV diverged for spec " << i << ":\n"
        << grid.base.to_json();
    ASSERT_EQ(lane.counters.size(), scalar.counters.size());
    for (std::size_t r = 0; r < lane.counters.size(); ++r) {
      ASSERT_EQ(lane.counters[r], scalar.counters[r])
          << "EngineCounters diverged at run " << r << " for spec " << i
          << ":\n"
          << grid.base.to_json() << "\nseeds_per_cell=" << seeds
          << " grid_seed=" << grid.grid_seed;
    }
  }
}

TEST(LaneDifferential, NamedGridsLaneVsScalarByteIdentical) {
  // The shipped grids end to end -- including the 432-cell multihop grid
  // and the loss-on-topology composition -- through real multi-threaded
  // pools on both paths.
  for (const char* name : {"smoke", "crash", "multihop", "mhloss"}) {
    auto grid = SweepGrid::named(name);
    ASSERT_TRUE(grid.has_value()) << name;
    const SweepResult lane = run(*grid, /*lanes=*/true, 4);
    const SweepResult scalar = run(*grid, /*lanes=*/false, 4);
    EXPECT_EQ(lane.json, scalar.json) << name << " JSON diverged";
    EXPECT_EQ(lane.csv, scalar.csv) << name << " CSV diverged";
    ASSERT_EQ(lane.counters.size(), scalar.counters.size());
    for (std::size_t r = 0; r < lane.counters.size(); ++r) {
      ASSERT_EQ(lane.counters[r], scalar.counters[r])
          << name << " counters diverged at run " << r;
    }
  }
}

TEST(LaneDifferential, EligibilityRoutesTheScalarOnlyShapes) {
  RunScenarioOptions plain;
  ScenarioSpec spec;  // defaults: consensus / singlehop / n=8
  EXPECT_TRUE(LaneExecutor::eligible(spec, plain));

  // Random-geometric graphs are drawn per seed; each lane carries its own
  // adjacency, so every workload on them is laned.
  ScenarioSpec rgg = spec;
  rgg.topology = TopologyKind::kRandomGeometric;
  for (WorkloadKind w : {WorkloadKind::kConsensus, WorkloadKind::kFlood,
                         WorkloadKind::kMis, WorkloadKind::kMisThenConsensus}) {
    rgg.workload = w;
    EXPECT_TRUE(LaneExecutor::eligible(rgg, plain)) << to_string(w);
  }

  ScenarioSpec empty = spec;
  empty.n = 0;
  EXPECT_FALSE(LaneExecutor::eligible(empty, plain));

  ScenarioSpec sync = spec;
  sync.workload = WorkloadKind::kRoundSync;
  EXPECT_FALSE(LaneExecutor::eligible(sync, plain));

  RunScenarioOptions capture;
  capture.capture_log = true;
  EXPECT_FALSE(LaneExecutor::eligible(spec, capture));
  RunScenarioOptions views;
  views.record_views = true;
  EXPECT_FALSE(LaneExecutor::eligible(spec, views));
}

}  // namespace
}  // namespace ccd::exp
