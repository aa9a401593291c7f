// Tail and degenerate-shape coverage for sweep blocks: cell sizes that
// land exactly on, just under, and just over the 64-seed block width;
// n = 0 blocks; schedules that crash EVERY process; and cells
// where a single survivor must still decide.  Each case runs the sweep
// with blocks (SweepOptions::lanes) on and off and demands byte-identical
// reports plus exactly equal per-run EngineCounters -- the same contract
// as the differential test, aimed at the boundaries where block
// partitioning and per-block graph reuse could plausibly diverge.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/lane_engine.hpp"
#include "exp/aggregator.hpp"
#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {
namespace {

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
  for (const RunRecord& record : records) {
    result.counters.push_back(record.perf.engine);
  }
  return result;
}

void expect_identical(const SweepGrid& grid, unsigned threads,
                      const char* what) {
  const SweepResult lane = run(grid, /*lanes=*/true, threads);
  const SweepResult scalar = run(grid, /*lanes=*/false, threads);
  EXPECT_EQ(lane.json, scalar.json) << what << ": JSON diverged";
  EXPECT_EQ(lane.csv, scalar.csv) << what << ": CSV diverged";
  ASSERT_EQ(lane.counters.size(), scalar.counters.size()) << what;
  for (std::size_t r = 0; r < lane.counters.size(); ++r) {
    EXPECT_EQ(lane.counters[r], scalar.counters[r])
        << what << ": counters diverged at run " << r;
  }
}

SweepGrid base_grid(std::uint32_t seeds_per_cell) {
  SweepGrid grid;
  grid.base.n = 6;
  grid.base.fault = FaultKind::kRandomCrash;
  grid.base.crash_p = 0.05;
  grid.base.max_rounds = 40;
  grid.seeds_per_cell = seeds_per_cell;
  grid.grid_seed = 0x7a11u;
  return grid;
}

TEST(LaneTail, BlockBoundaryCellSizes) {
  // 1 (one-run block), 63/64 (just under / exactly one full block),
  // 65 (full block + 1-run tail), 130 (two full blocks + 2-run tail).
  for (std::uint32_t seeds : {1u, 63u, 64u, 65u, 130u}) {
    SweepGrid grid = base_grid(seeds);
    ASSERT_FALSE(grid.validate().has_value());
    expect_identical(grid, /*threads=*/2,
                     ("seeds_per_cell=" + std::to_string(seeds)).c_str());
  }
}

TEST(LaneTail, TailStraddlesCellsAndAxes) {
  // Two axes x 65 seeds: every cell contributes a full block plus a
  // 1-run tail, and blocks must never bridge a cell boundary.
  SweepGrid grid = base_grid(65);
  grid.detectors = {DetectorKind::kAC, DetectorKind::kNoCd};
  grid.topologies = {TopologyKind::kSingleHop, TopologyKind::kRing};
  ASSERT_FALSE(grid.validate().has_value());
  expect_identical(grid, /*threads=*/3, "two axes x 65 seeds");
}

TEST(LaneTail, EmptyWorldRunsThroughTheEngine) {
  // n = 0 is an 8-seed block of worlds that are done before round 1.
  SweepGrid grid = base_grid(8);
  grid.base.n = 0;
  grid.base.fault = FaultKind::kNone;
  ASSERT_FALSE(grid.validate().has_value());
  ASSERT_TRUE(LaneExecutor::eligible(grid.spec_for_run(0)));
  expect_identical(grid, /*threads=*/2, "n=0");
  for (const RunRecord& record : run_sweep(grid)) {
    EXPECT_TRUE(record.summary.verdict.solved());
    EXPECT_EQ(record.summary.result.rounds_executed, 0u);
    EXPECT_EQ(record.perf.engine, obs::EngineCounters{});
  }
}

TEST(LaneTail, AllProcessesCrash) {
  // Every process is scheduled to die -- a mix of both crash points --
  // so worlds reach zero survivors and must end with a lone run's
  // exact counters and (empty) decision set.
  SweepGrid grid = base_grid(65);
  grid.base.fault = FaultKind::kScheduled;
  for (ProcessId p = 0; p < grid.base.n; ++p) {
    grid.base.crash_schedule.push_back(
        {static_cast<Round>(1 + p % 3), p,
         p % 2 == 0 ? CrashPoint::kBeforeSend : CrashPoint::kAfterSend});
  }
  ASSERT_FALSE(grid.validate().has_value());
  expect_identical(grid, /*threads=*/2, "all-crash schedule");
}

TEST(LaneTail, SingleSurvivorDecides) {
  // All but process 0 crash in the first rounds; the lone survivor must
  // still run the full protocol to its decision on both paths.
  SweepGrid grid = base_grid(65);
  grid.base.fault = FaultKind::kScheduled;
  for (ProcessId p = 1; p < grid.base.n; ++p) {
    grid.base.crash_schedule.push_back(
        {static_cast<Round>(p), p, CrashPoint::kBeforeSend});
  }
  ASSERT_FALSE(grid.validate().has_value());
  expect_identical(grid, /*threads=*/2, "single survivor");

  // Same shape on a multihop workload: the survivor's flood trivially
  // covers the surviving subgraph.
  SweepGrid flood = grid;
  flood.base.workload = WorkloadKind::kFlood;
  flood.base.topology = TopologyKind::kLine;
  ASSERT_FALSE(flood.validate().has_value());
  expect_identical(flood, /*threads=*/2, "single survivor flood");
}

/// Every report-relevant field of a record, for whole-record comparison.
std::string describe(const RunSummary& s) {
  std::string out;
  const ConsensusVerdict& v = s.verdict;
  for (const std::uint64_t x :
       {std::uint64_t{s.result.all_correct_decided},
        std::uint64_t{s.result.last_decision_round},
        std::uint64_t{s.result.rounds_executed},
        std::uint64_t{s.result.num_crashed}, std::uint64_t{v.agreement},
        std::uint64_t{v.strong_validity}, std::uint64_t{v.uniform_validity},
        std::uint64_t{v.termination}, std::uint64_t{v.first_decision_round},
        std::uint64_t{v.last_decision_round}, std::uint64_t{s.cst},
        std::uint64_t{s.rounds_after_cst}}) {
    out.append(std::to_string(x)).append(",");
  }
  for (const Value d : v.decided_values) {
    out.append("d").append(std::to_string(d)).append(",");
  }
  return out;
}

std::string describe(const RunRecord& r) {
  const MultihopSummary& mh = r.mh;
  std::string out = describe(r.summary);
  out.append("|");
  for (const std::uint64_t x :
       {std::uint64_t{mh.ran}, std::uint64_t{mh.connected},
        std::uint64_t{mh.diameter}, std::uint64_t{mh.rounds_executed},
        mh.broadcasts, mh.crashes_applied, std::uint64_t{mh.survivors},
        std::uint64_t{mh.covered}, std::uint64_t{mh.full_coverage_round},
        std::uint64_t{mh.mis_size}, std::uint64_t{mh.mis_settle_round},
        std::uint64_t{mh.mis_independent}, std::uint64_t{mh.mis_maximal},
        std::uint64_t{mh.phase2_skipped}}) {
    out.append(std::to_string(x)).append(",");
  }
  out.append(std::to_string(mh.messages_per_node)).append(",");
  out.append(mh.error);
  return out;
}

/// Each run of a blocked sweep must equal the one-run run_one of its index,
/// record and counters alike.
void expect_lanes_match_run_one(const SweepGrid& grid, const char* what) {
  SweepOptions options;
  options.lanes = true;
  const std::vector<RunRecord> laned = run_sweep(grid, options);
  ASSERT_EQ(laned.size(), grid.num_runs()) << what;
  for (std::size_t j = 0; j < laned.size(); ++j) {
    const RunRecord alone = run_one(grid, j);
    EXPECT_EQ(describe(laned[j]), describe(alone)) << what << " run " << j;
    EXPECT_EQ(laned[j].perf.engine, alone.perf.engine)
        << what << ": counters diverged at run " << j;
  }
}

TEST(LaneTail, RandomGeometricLanesEachRunTheirOwnGraph) {
  // Twelve seeds of one rgg cell form one block, but each seed draws
  // its own graph.  Density 0.5 sits below the connectivity threshold, so
  // some graphs stay disconnected even after the factory's retries.
  SweepGrid grid;
  grid.base.n = 24;
  grid.base.topology = TopologyKind::kRandomGeometric;
  grid.base.density = 0.5;
  grid.base.fault = FaultKind::kRandomCrash;
  grid.base.crash_p = 0.05;
  grid.base.max_rounds = 60;
  grid.seeds_per_cell = 12;
  grid.grid_seed = 0x5eedu;
  grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMis,
                    WorkloadKind::kMisThenConsensus, WorkloadKind::kConsensus};
  ASSERT_FALSE(grid.validate().has_value()) << *grid.validate();
  ASSERT_TRUE(LaneExecutor::eligible(grid.spec_for_run(0)));

  // The block really mixes graphs: distinct shapes, at least one of them
  // disconnected.
  std::set<std::vector<std::vector<std::uint32_t>>> shapes;
  std::size_t disconnected = 0;
  for (std::size_t j = 0; j < grid.seeds_per_cell; ++j) {
    const Topology topo = WorldFactory::make_topology(grid.spec_for_run(j));
    std::vector<std::vector<std::uint32_t>> rows;
    for (std::size_t i = 0; i < topo.size(); ++i) {
      rows.push_back(topo.neighbors(i));
    }
    shapes.insert(std::move(rows));
    if (!topo.connected()) ++disconnected;
  }
  EXPECT_GT(shapes.size(), 1u);
  EXPECT_GE(disconnected, 1u);

  expect_lanes_match_run_one(grid, "rgg density 0.5");
}

TEST(LaneTail, ConsensusOnRandomGeometricLanes) {
  // The mhloss shape: consensus over rgg with an adjacency-masked loss
  // adversary and a contention manager, plus crashes and a 65-seed tail.
  SweepGrid grid = base_grid(65);
  grid.base.n = 12;
  grid.base.topology = TopologyKind::kRandomGeometric;
  grid.losses = {LossKind::kEcf, LossKind::kProbabilistic,
                 LossKind::kUnrestricted};
  grid.cms = {CmKind::kNoCm, CmKind::kWakeup};
  ASSERT_FALSE(grid.validate().has_value()) << *grid.validate();
  expect_identical(grid, /*threads=*/2, "consensus on rgg");

  SweepGrid small = grid;
  small.seeds_per_cell = 12;
  expect_lanes_match_run_one(small, "consensus on rgg, run_one");
}

TEST(LaneTail, StridedSubsetDegradesToOneRunBlocks) {
  // run_subset with a stride breaks global-index consecutiveness, so the
  // block partition must fall back to 1-run blocks -- and still match the
  // blocks-off run byte for byte.
  SweepGrid grid = base_grid(64);
  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < grid.num_runs(); j += 2) indices.push_back(j);
  SweepOptions lanes_on;
  lanes_on.lanes = true;
  SweepOptions lanes_off;
  lanes_off.lanes = false;
  const auto a = run_subset(grid, indices, lanes_on);
  const auto b = run_subset(grid, indices, lanes_off);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].run_index, b[k].run_index);
    EXPECT_EQ(a[k].perf.engine, b[k].perf.engine) << "run " << k;
    EXPECT_EQ(a[k].summary.verdict.agreement, b[k].summary.verdict.agreement);
  }
}

}  // namespace
}  // namespace ccd::exp
