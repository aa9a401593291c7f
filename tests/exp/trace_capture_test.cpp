// Trace capture (--rerun-cell): a report cell re-executes into fully
// instrumented runs -- same results as the sweep (determinism), now with
// complete ExecutionLogs.
#include "exp/trace_capture.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "exp/lane_executor.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {
namespace {

TEST(TraceCapture, RerunReproducesTheSweepRunsWithFullLogs) {
  auto grid = SweepGrid::named("smoke");
  ASSERT_TRUE(grid.has_value());
  const std::size_t cell = 2;

  const std::vector<TracedRun> traced = rerun_cell(*grid, cell);
  ASSERT_EQ(traced.size(), grid->seeds_per_cell);

  for (std::uint32_t s = 0; s < grid->seeds_per_cell; ++s) {
    const std::size_t run_index = cell * grid->seeds_per_cell + s;
    // The sweep's record for the same run index (no recording, like a
    // real sweep)...
    const RunRecord record = run_one(*grid, run_index);
    const TracedRun& t = traced[s];
    EXPECT_EQ(t.run_index, run_index);
    EXPECT_EQ(t.spec, record.spec);
    // ...decides identically: trace capture re-executes THE run, it does
    // not perturb it.
    EXPECT_EQ(t.summary.result.rounds_executed,
              record.summary.result.rounds_executed);
    EXPECT_EQ(t.summary.verdict.solved(), record.summary.verdict.solved());
    EXPECT_EQ(t.summary.verdict.last_decision_round,
              record.summary.verdict.last_decision_round);
    // And carries the full instrumentation.
    ASSERT_TRUE(t.log.has_value());
    EXPECT_TRUE(t.log->views_recorded());
    EXPECT_EQ(t.log->num_rounds(), t.summary.result.rounds_executed);
  }
}

TEST(TraceCapture, MultihopCellsCaptureTheEngineLog) {
  auto grid = SweepGrid::named("multihop");
  ASSERT_TRUE(grid.has_value());
  // Cell 0: flood on a line, failure-free (the innermost digits of the
  // multihop grid enumeration).
  const std::vector<TracedRun> traced = rerun_cell(*grid, 0);
  ASSERT_FALSE(traced.empty());
  const TracedRun& t = traced.front();
  EXPECT_EQ(t.spec.workload, WorkloadKind::kFlood);
  EXPECT_TRUE(t.mh.ran);
  ASSERT_TRUE(t.log.has_value());
  EXPECT_TRUE(t.log->views_recorded());
  EXPECT_EQ(t.log->num_rounds(), t.mh.rounds_executed);
  EXPECT_EQ(t.log->num_processes(), t.spec.n);
}

TEST(TraceCapture, DumpIsSelfDescribing) {
  auto grid = SweepGrid::named("smoke");
  ASSERT_TRUE(grid.has_value());
  const auto traced = rerun_cell(*grid, 0);
  const std::string json = traced_runs_to_json(*grid, 0, traced);
  EXPECT_NE(json.find("\"format\":\"ccd-cell-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cell\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"views\":["), std::string::npos);
  EXPECT_NE(json.find("\"decisions\":["), std::string::npos);
  // One run object per seed.
  std::size_t runs = 0, pos = 0;
  while ((pos = json.find("\"run_index\":", pos)) != std::string::npos) {
    ++runs;
    pos += 1;
  }
  EXPECT_EQ(runs, grid->seeds_per_cell);
}


std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// One traced cell per engine configuration the sweeps run: single-hop
/// consensus (kMatrix x kGlobal), consensus on a graph (kMatrix x kLocal),
/// flood and MIS (kCapture x kLocal), mis-then-consensus (MIS log plus the
/// phase-2 consensus log), both crash points on both scopes, and n = 0.
struct FrozenCell {
  const char* name;
  ScenarioSpec spec;
  std::uint64_t dump_hash;
};

std::vector<FrozenCell> frozen_cells() {
  std::vector<FrozenCell> cells;
  auto add = [&](const char* name, std::uint64_t hash, auto&& edit) {
    ScenarioSpec spec;
    spec.alg = AlgKind::kAlg2;
    spec.detector = DetectorKind::kZeroOAC;
    spec.n = 6;
    spec.max_rounds = 40;
    edit(spec);
    cells.push_back({name, spec, hash});
  };
  add("singlehop-consensus", 0x2aef9663bdf3e6b2ull, [](ScenarioSpec&) {});
  add("grid-consensus", 0xc29bb5ea1f34bff0ull, [](ScenarioSpec& s) {
    s.topology = TopologyKind::kGrid;
    s.n = 9;
    s.loss = LossKind::kProbabilistic;
  });
  add("flood", 0xaafd32dcd1a18853ull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kFlood;
    s.topology = TopologyKind::kLine;
    s.detector = DetectorKind::kZeroAC;
  });
  add("mis", 0x46238f81bfcf1169ull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kMis;
    s.topology = TopologyKind::kRandomGeometric;
    s.n = 12;
    s.detector = DetectorKind::kZeroAC;
  });
  add("mis-then-consensus", 0xc4fd89e163be06e0ull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kMisThenConsensus;
    s.topology = TopologyKind::kGrid;
    s.n = 16;
  });
  add("singlehop-crash-schedule", 0x7fb32509378f904dull,
      [](ScenarioSpec& s) {
        s.fault = FaultKind::kScheduled;
        s.crash_schedule = {{2, 1, CrashPoint::kAfterSend},
                            {3, 4, CrashPoint::kBeforeSend}};
      });
  add("flood-crash-schedule", 0x6836c7c9dc4aa7c8ull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kFlood;
    s.topology = TopologyKind::kGrid;
    s.n = 9;
    s.detector = DetectorKind::kZeroAC;
    s.fault = FaultKind::kScheduled;
    s.crash_schedule = {{2, 4, CrashPoint::kAfterSend},
                        {3, 1, CrashPoint::kBeforeSend}};
  });
  add("grid-consensus-random-crash", 0x1a2e52da2d701bf8ull,
      [](ScenarioSpec& s) {
        s.topology = TopologyKind::kGrid;
        s.n = 9;
        s.fault = FaultKind::kRandomCrash;
        s.crash_p = 0.1;
      });
  add("singlehop-n0", 0x5c6d9e911bb113b0ull,
      [](ScenarioSpec& s) { s.n = 0; });
  add("flood-n0", 0xd52a199bc547d31aull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kFlood;
    s.topology = TopologyKind::kLine;
    s.n = 0;
  });
  add("mis-then-consensus-n0", 0xc23e9e2d150eababull, [](ScenarioSpec& s) {
    s.workload = WorkloadKind::kMisThenConsensus;
    s.topology = TopologyKind::kGrid;
    s.n = 0;
  });
  return cells;
}

SweepGrid frozen_grid(const ScenarioSpec& spec) {
  SweepGrid grid;
  grid.base = spec;
  grid.seeds_per_cell = 3;
  grid.grid_seed = 0x7ace5eedull;
  return grid;
}

// Captured from the scalar RoundEngine immediately before it was deleted.
TEST(TraceCapture, DumpsMatchTheFrozenScalarReference) {
  for (const FrozenCell& cell : frozen_cells()) {
    const SweepGrid grid = frozen_grid(cell.spec);
    const std::string json =
        traced_runs_to_json(grid, 0, rerun_cell(grid, 0));
    EXPECT_EQ(fnv1a(json), cell.dump_hash)
        << cell.name << ": got " << hex(fnv1a(json));
  }
}

TEST(TraceCapture, LaneBlockLogsMatchTheFrozenScalarReference) {
  // The cell's seeds recorded together in one sweep block: block
  // recording must reproduce every seed's one-run log byte for byte.
  RunScenarioOptions capture;
  capture.capture_log = true;
  for (const FrozenCell& cell : frozen_cells()) {
    const SweepGrid grid = frozen_grid(cell.spec);
    std::vector<ScenarioSpec> specs;
    for (std::size_t j = 0; j < grid.seeds_per_cell; ++j) {
      specs.push_back(grid.spec_for_run(j));
    }
    std::vector<ScenarioOutcome> outcomes =
        LaneExecutor::run_block(specs, capture);
    std::vector<TracedRun> runs(specs.size());
    for (std::size_t j = 0; j < specs.size(); ++j) {
      runs[j].run_index = j;
      runs[j].spec = specs[j];
      runs[j].summary = outcomes[j].summary;
      runs[j].mh = outcomes[j].mh;
      runs[j].log = std::move(outcomes[j].log);
      runs[j].phase2_log = std::move(outcomes[j].phase2_log);
    }
    const std::string json = traced_runs_to_json(grid, 0, runs);
    EXPECT_EQ(fnv1a(json), cell.dump_hash)
        << cell.name << ": got " << hex(fnv1a(json));
  }
}

}  // namespace
}  // namespace ccd::exp
