// Crash faults as a first-class sweep dimension: schedule JSON round-trips
// with keyed errors, named worst-case generators, the multihop fault wiring
// of run_scenario (survivor-conditioned metrics, phase-2 skip), grid
// validation, and thread-count invariance of faulted multihop sweeps.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {
namespace {

// ---- crash-schedule JSON --------------------------------------------------

TEST(CrashScheduleJson, ExplicitScheduleRoundTrips) {
  ScenarioSpec spec;
  spec.fault = FaultKind::kScheduled;
  spec.crash_schedule = {{3, 0, CrashPoint::kBeforeSend},
                         {5, 2, CrashPoint::kAfterSend},
                         {7, 1, CrashPoint::kBeforeSend}};
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"crash_schedule\":[{\"round\":3,\"process\":0,"
                      "\"point\":\"before-send\"}"),
            std::string::npos)
      << json;
  auto parsed = ScenarioSpec::from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(spec, *parsed);
}

TEST(CrashScheduleJson, NamedGeneratorRoundTrips) {
  ScenarioSpec spec;
  spec.fault = FaultKind::kScheduled;
  spec.crash_schedule_name = "leaf-then-die";
  auto parsed = ScenarioSpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.has_value()) << spec.to_json();
  EXPECT_EQ(spec, *parsed);
}

TEST(CrashScheduleJson, EmptyScheduleMembersAreOmitted) {
  // Pre-existing specs (and their cell keys) keep their exact bytes.
  const ScenarioSpec spec;
  EXPECT_EQ(spec.to_json().find("crash_schedule"), std::string::npos);
}

TEST(CrashScheduleJson, RejectsBadKeysAndValuesWithKeyedErrors) {
  struct Case {
    const char* schedule;        // the crash_schedule array text
    const char* expect_in_error;
  };
  const Case cases[] = {
      // A typo'd key must not silently default to process 0.
      {R"([{"round":1,"proces":0}])", "unknown key 'proces'"},
      {R"([{"round":1,"process":0,"pt":"after-send"}])", "unknown key 'pt'"},
      {R"([{"round":"one","process":0}])", "bad value 'one' for key 'round'"},
      {R"([{"round":1,"process":-2}])", "bad value '-2' for key 'process'"},
      {R"([{"round":1,"process":0,"point":"mid-send"}])",
       "bad value 'mid-send' for key 'point'"},
      {R"([{"process":0}])", "missing key 'round'"},
      {R"([{"round":1}])", "missing key 'process'"},
      {R"([{"round":1,"process":0} {"round":2,"process":1}])",
       "crash_schedule"},  // missing comma: structural, still keyed
  };
  for (const Case& c : cases) {
    const std::string json =
        std::string(R"({"fault":"scheduled","crash_schedule":)") + c.schedule +
        "}";
    std::string error;
    EXPECT_FALSE(ScenarioSpec::from_json(json, &error).has_value()) << json;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << json << " -> " << error;
  }
  // The entry index is part of the message.
  std::string error;
  ScenarioSpec::from_json(
      R"({"crash_schedule":[{"round":1,"process":0},{"round":2,"proc":1}]})",
      &error);
  EXPECT_NE(error.find("crash_schedule[1]"), std::string::npos) << error;
}

TEST(CrashScheduleJson, RejectsUnknownGeneratorNames) {
  // A typo'd name must fail the parse, not silently expand to an empty
  // schedule (which would be a failure-free run labelled as faulted --
  // the exact silent-drop bug this layer exists to prevent).
  std::string error;
  auto parsed = ScenarioSpec::from_json(
      R"({"fault":"scheduled","crash_schedule_name":"leaf-then-dye"})",
      &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("'crash_schedule_name'"), std::string::npos) << error;
  EXPECT_NE(error.find("leaf-then-dye"), std::string::npos) << error;
}

TEST(CrashScheduleJson, IssueExampleParses) {
  auto parsed = ScenarioSpec::from_json(
      R"({"fault":"scheduled",)"
      R"("crash_schedule":[{"round":3,"process":0,"point":"before-send"}]})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fault, FaultKind::kScheduled);
  ASSERT_EQ(parsed->crash_schedule.size(), 1u);
  EXPECT_EQ(parsed->crash_schedule[0].round, 3u);
  EXPECT_EQ(parsed->crash_schedule[0].process, 0u);
  EXPECT_EQ(parsed->crash_schedule[0].point, CrashPoint::kBeforeSend);
}

// ---- named generators -----------------------------------------------------

TEST(CrashScheduleGenerators, LeafThenDieShape) {
  ScenarioSpec spec;
  spec.n = 4;
  spec.num_values = 16;  // ceil(lg 16) + 1 = 5 rounds per leaf window
  auto events = generate_crash_schedule("leaf-then-die", spec);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 3u);  // everyone but process 0 dies
  const std::vector<CrashEvent> expected = {
      {5, 3, CrashPoint::kAfterSend},
      {10, 2, CrashPoint::kAfterSend},
      {15, 1, CrashPoint::kAfterSend}};
  EXPECT_EQ(*events, expected);

  // Deterministic in the spec, and survivor-preserving for tiny n.
  EXPECT_EQ(*generate_crash_schedule("leaf-then-die", spec),
            *generate_crash_schedule("leaf-then-die", spec));
  spec.n = 1;
  EXPECT_TRUE(generate_crash_schedule("leaf-then-die", spec)->empty());
}

TEST(CrashScheduleGenerators, SourceDiesAndUnknownNames) {
  ScenarioSpec spec;
  auto events = generate_crash_schedule("source-dies", spec);
  ASSERT_TRUE(events.has_value());
  const std::vector<CrashEvent> expected = {{2, 0, CrashPoint::kAfterSend}};
  EXPECT_EQ(*events, expected);
  EXPECT_FALSE(generate_crash_schedule("die-hard", spec).has_value());
  for (const std::string& name : crash_schedule_names()) {
    EXPECT_TRUE(generate_crash_schedule(name, spec).has_value()) << name;
  }
}

TEST(CrashScheduleGenerators, ArticulationPointTargetsTheWorstCutVertex) {
  // On a line every interior node is a cut vertex; the generator must pick
  // the one whose removal minimizes the largest surviving component -- the
  // middle -- and kill it with the source-dies opener shape (round 2,
  // after-send).
  ScenarioSpec spec;
  spec.topology = TopologyKind::kLine;
  spec.workload = WorkloadKind::kFlood;
  spec.fault = FaultKind::kScheduled;
  spec.n = 5;
  auto events = generate_crash_schedule("articulation-point", spec);
  ASSERT_TRUE(events.has_value());
  const std::vector<CrashEvent> expected = {{2, 2, CrashPoint::kAfterSend}};
  EXPECT_EQ(*events, expected);

  // Even n: both middles split {2,3} / {3,2}; lowest id wins the tie.
  spec.n = 6;
  events = generate_crash_schedule("articulation-point", spec);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].process, 2u);

  // No cut vertex (ring, clique) -> empty, failure-free schedule.
  spec.topology = TopologyKind::kRing;
  EXPECT_TRUE(generate_crash_schedule("articulation-point", spec)->empty());
  spec.topology = TopologyKind::kSingleHop;
  EXPECT_TRUE(generate_crash_schedule("articulation-point", spec)->empty());

  // Deterministic, registered, and survivor-preserving for tiny n.
  spec.topology = TopologyKind::kLine;
  EXPECT_EQ(*generate_crash_schedule("articulation-point", spec),
            *generate_crash_schedule("articulation-point", spec));
  spec.n = 2;
  EXPECT_TRUE(generate_crash_schedule("articulation-point", spec)->empty());
  const auto names = crash_schedule_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "articulation-point"),
            names.end());
}

TEST(CrashScheduleGenerators, NamedGeneratorWinsOverExplicitList) {
  ScenarioSpec spec;
  spec.crash_schedule = {{1, 0, CrashPoint::kBeforeSend}};
  EXPECT_EQ(resolved_crash_schedule(spec), spec.crash_schedule);
  spec.crash_schedule_name = "source-dies";
  EXPECT_EQ(resolved_crash_schedule(spec),
            *generate_crash_schedule("source-dies", spec));
}

// ---- run_scenario multihop fault wiring -----------------------------------

TEST(RunScenarioCrash, ScheduledCrashesLandAndConditionMetricsOnSurvivors) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kLine;
  spec.workload = WorkloadKind::kMis;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kNoLoss;
  spec.fault = FaultKind::kScheduled;
  spec.crash_schedule_name = "leaf-then-die";
  spec.n = 8;
  spec.seed = 21;
  const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
  EXPECT_TRUE(s.ran);
  EXPECT_TRUE(s.error.empty());
  EXPECT_EQ(s.crashes_applied, 7u);  // everyone but process 0
  EXPECT_EQ(s.survivors, 1u);
  // All metrics are over the surviving subgraph: the lone survivor is its
  // own (independent, maximal) clusterhead.
  EXPECT_LE(s.mis_size, 1u);
}

TEST(RunScenarioCrash, ReproducibleFromJsonSpecAlone) {
  // The acceptance bar: a leaf-then-die cell re-run from nothing but its
  // serialized spec produces the identical execution.
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGrid;
  spec.workload = WorkloadKind::kMisThenConsensus;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kEcf;
  spec.fault = FaultKind::kScheduled;
  spec.crash_schedule_name = "leaf-then-die";
  spec.n = 16;
  spec.seed = 99;

  auto parsed = ScenarioSpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(spec, *parsed);
  const MultihopSummary a = WorldFactory::run_scenario(spec).mh;
  const MultihopSummary b = WorldFactory::run_scenario(*parsed).mh;
  EXPECT_GT(a.crashes_applied, 0u);
  EXPECT_EQ(a.crashes_applied, b.crashes_applied);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.mis_size, b.mis_size);
  EXPECT_EQ(a.phase2_skipped, b.phase2_skipped);
  EXPECT_EQ(a.consensus.has_value(), b.consensus.has_value());
}

TEST(RunScenarioCrash, RandomCrashAppliesUnderTheFaultSeedStream) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.workload = WorkloadKind::kFlood;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kNoLoss;
  spec.fault = FaultKind::kRandomCrash;
  spec.crash_p = 0.2;
  spec.n = 16;
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    spec.seed = seed;
    const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
    total += s.crashes_applied;
    EXPECT_EQ(s.survivors + s.crashes_applied, spec.n);
    // Coverage counts survivors only.
    EXPECT_LE(s.covered, s.survivors);
  }
  EXPECT_GT(total, 0u);  // p=0.2 over 5 CST rounds x 16 nodes x 5 seeds
}

TEST(RunScenarioCrash, ZeroSurvivingHeadsSkipsPhaseTwoExplicitly) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kLine;
  spec.workload = WorkloadKind::kMisThenConsensus;
  spec.loss = LossKind::kNoLoss;
  spec.fault = FaultKind::kScheduled;
  spec.n = 6;
  // Kill everyone in round 1: zero heads can survive.
  for (std::uint32_t p = 0; p < spec.n; ++p) {
    spec.crash_schedule.push_back({1, p, CrashPoint::kBeforeSend});
  }
  const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
  EXPECT_TRUE(s.ran);
  EXPECT_EQ(s.survivors, 0u);
  EXPECT_EQ(s.mis_size, 0u);
  EXPECT_TRUE(s.phase2_skipped);
  EXPECT_FALSE(s.consensus.has_value());

  // A failure-free run of the same shape runs phase 2 and says so.
  spec.fault = FaultKind::kNone;
  spec.crash_schedule.clear();
  const MultihopSummary ok = WorldFactory::run_scenario(spec).mh;
  EXPECT_FALSE(ok.phase2_skipped);
  EXPECT_TRUE(ok.consensus.has_value());
}

// ---- grid validation and sweeps -------------------------------------------

TEST(SweepGridCrash, ValidateCatchesScheduleProblems) {
  SweepGrid grid;
  grid.base.workload = WorkloadKind::kFlood;
  grid.base.topology = TopologyKind::kLine;
  grid.faults = {FaultKind::kNone, FaultKind::kScheduled};
  auto problem = grid.validate();
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("fault=scheduled"), std::string::npos) << *problem;

  grid.crash_schedules = {"leaf-then-die", "source-dies"};
  EXPECT_FALSE(grid.validate().has_value());

  grid.crash_schedules = {"leaf-then-die", "die-another-day"};
  problem = grid.validate();
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("die-another-day"), std::string::npos) << *problem;

  grid.crash_schedules.clear();
  grid.base.crash_schedule_name = "leaf-then-die";
  EXPECT_FALSE(grid.validate().has_value());
  grid.base.crash_schedule_name = "nope";
  EXPECT_TRUE(grid.validate().has_value());

  grid.base.crash_schedule_name.clear();
  grid.base.crash_schedule = {{1, 0, CrashPoint::kBeforeSend}};
  EXPECT_FALSE(grid.validate().has_value());
}

TEST(SweepGridCrash, CrashSchedulesAxisEnumerates) {
  SweepGrid grid;
  grid.base.workload = WorkloadKind::kMis;
  grid.base.topology = TopologyKind::kLine;
  grid.faults = {FaultKind::kNone, FaultKind::kScheduled};
  grid.crash_schedules = {"leaf-then-die", "source-dies"};
  EXPECT_EQ(grid.num_cells(), 4u);
  EXPECT_FALSE(grid.validate().has_value());
  std::size_t scheduled_cells = 0;
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    const ScenarioSpec spec = grid.spec_for_cell(c);
    EXPECT_FALSE(spec.crash_schedule_name.empty());
    if (spec.fault == FaultKind::kScheduled) ++scheduled_cells;
  }
  EXPECT_EQ(scheduled_cells, 2u);  // one per schedule name
}

TEST(SweepRunnerCrash, FaultedMultihopSweepIsThreadCountInvariant) {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMisThenConsensus};
  grid.topologies = {TopologyKind::kLine, TopologyKind::kGrid};
  grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                 FaultKind::kScheduled};
  grid.crash_schedules = {"leaf-then-die"};
  grid.losses = {LossKind::kNoLoss};
  grid.base.detector = DetectorKind::kZeroAC;
  grid.base.n = 8;
  grid.base.crash_p = 0.1;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 1234;
  ASSERT_FALSE(grid.validate().has_value());

  std::string baseline, baseline_csv;
  for (unsigned threads : {1u, 8u}) {
    SweepOptions options;
    options.threads = threads;
    const auto records = run_sweep(grid, options);
    const auto cells = aggregate(grid, records);
    const std::string json = aggregates_to_json(grid, cells);
    const std::string csv = aggregates_to_csv(cells);
    if (threads == 1) {
      baseline = json;
      baseline_csv = csv;
      // Crash metrics are populated, and some cell actually crashed.
      EXPECT_NE(json.find("\"crashes_applied\":"), std::string::npos);
      EXPECT_NE(json.find("\"surviving_fraction\":"), std::string::npos);
      EXPECT_NE(csv.find("mh_crashes_applied"), std::string::npos);
      std::size_t total_crashes = 0;
      for (const CellAggregate& cell : cells) {
        total_crashes += cell.mh_crashes_applied;
        if (cell.spec.fault == FaultKind::kNone) {
          EXPECT_EQ(cell.mh_crashes_applied, 0u);
        }
      }
      EXPECT_GT(total_crashes, 0u);
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
      EXPECT_EQ(csv, baseline_csv) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ccd::exp
