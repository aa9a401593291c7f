// Tests for the multihop dimension of the experiment engine: topology
// generation determinism, connectivity at the documented RGG density
// floor, JSON round-trip of the topology/workload/density spec fields,
// keyed parse errors, and thread-count invariance of multihop sweeps.
#include <gtest/gtest.h>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {
namespace {

ScenarioSpec rgg_spec(std::uint32_t n, double density, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRandomGeometric;
  spec.workload = WorkloadKind::kFlood;
  spec.n = n;
  spec.density = density;
  spec.seed = seed;
  return spec;
}

TEST(MakeTopology, DeterministicAcrossCalls) {
  const ScenarioSpec spec = rgg_spec(40, 2.5, 0xfeedULL);
  const Topology a = WorldFactory::make_topology(spec);
  const Topology b = WorldFactory::make_topology(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.neighbors(i), b.neighbors(i));
  }
}

TEST(MakeTopology, SeedChangesRggButNotFixedShapes) {
  ScenarioSpec spec = rgg_spec(40, 2.5, 1);
  ScenarioSpec other = spec;
  other.seed = 2;
  const Topology a = WorldFactory::make_topology(spec);
  const Topology b = WorldFactory::make_topology(other);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.neighbors(i) != b.neighbors(i)) differs = true;
  }
  EXPECT_TRUE(differs);  // astronomically unlikely to coincide

  // Non-random topologies ignore the seed entirely.
  spec.topology = TopologyKind::kRing;
  other.topology = TopologyKind::kRing;
  const Topology ra = WorldFactory::make_topology(spec);
  const Topology rb = WorldFactory::make_topology(other);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra.neighbors(i), rb.neighbors(i));
  }
}

TEST(MakeTopology, RggConnectedAtTheDocumentedDensityFloor) {
  // density >= 2.0 is the documented floor; the factory's bounded seed
  // retries must deliver a connected instance for every run seed.
  for (std::uint32_t n : {16u, 32u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const Topology t =
          WorldFactory::make_topology(rgg_spec(n, 2.0, seed));
      EXPECT_TRUE(t.connected()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(MakeTopology, EveryKindMatchesItsShape) {
  ScenarioSpec spec;
  spec.n = 9;
  spec.topology = TopologyKind::kSingleHop;
  EXPECT_EQ(WorldFactory::make_topology(spec).diameter(), 1u);
  spec.topology = TopologyKind::kLine;
  EXPECT_EQ(WorldFactory::make_topology(spec).diameter(), 8u);
  spec.topology = TopologyKind::kRing;
  EXPECT_EQ(WorldFactory::make_topology(spec).diameter(), 4u);
  spec.topology = TopologyKind::kGrid;
  EXPECT_EQ(WorldFactory::make_topology(spec).diameter(), 4u);  // 3x3
}

TEST(ScenarioSpecJson, MultihopFieldsRoundTrip) {
  for (auto t : {TopologyKind::kSingleHop, TopologyKind::kLine,
                 TopologyKind::kRing, TopologyKind::kGrid,
                 TopologyKind::kRandomGeometric}) {
    for (auto w : {WorkloadKind::kConsensus, WorkloadKind::kFlood,
                   WorkloadKind::kMis, WorkloadKind::kMisThenConsensus}) {
      ScenarioSpec spec;
      spec.topology = t;
      spec.workload = w;
      spec.density = 3.25;
      auto parsed = ScenarioSpec::from_json(spec.to_json());
      ASSERT_TRUE(parsed.has_value()) << spec.to_json();
      EXPECT_EQ(spec, *parsed);
    }
  }
}

TEST(ScenarioSpecJson, OmittedMultihopFieldsKeepDefaults) {
  // PR-1 era reports (no topology/workload/density members) must still
  // parse, as single-hop consensus.
  auto parsed = ScenarioSpec::from_json("{\"alg\":\"alg2\",\"n\":4}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->topology, TopologyKind::kSingleHop);
  EXPECT_EQ(parsed->workload, WorkloadKind::kConsensus);
  EXPECT_EQ(parsed->density, ScenarioSpec{}.density);
}

TEST(ScenarioSpecJson, RejectsUnknownTopologyNamingTheKey) {
  std::string error;
  auto parsed =
      ScenarioSpec::from_json("{\"topology\":\"torus\"}", &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("topology"), std::string::npos) << error;
  EXPECT_NE(error.find("torus"), std::string::npos) << error;
}

TEST(ScenarioSpecJson, ErrorNamesTheOffendingKeyAndValue) {
  struct Case {
    const char* json;
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"{\"alg\":\"alg9\"}", "alg", "alg9"},
      {"{\"detector\":\"psychic\"}", "detector", "psychic"},
      {"{\"workload\":\"gossip\"}", "workload", "gossip"},
      {"{\"n\":\"eight\"}", "n", "eight"},
      {"{\"density\":\"thick\"}", "density", "thick"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioSpec::from_json(c.json, &error).has_value())
        << c.json;
    EXPECT_NE(error.find(std::string("'") + c.key + "'"), std::string::npos)
        << c.json << " -> " << error;
    EXPECT_NE(error.find(c.value), std::string::npos)
        << c.json << " -> " << error;
  }
  // Structural failures still produce a message (no key to blame).
  std::string error;
  EXPECT_FALSE(ScenarioSpec::from_json("not json", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(RunScenarioMultihop, FloodCoversAConnectedLine) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kLine;
  spec.workload = WorkloadKind::kFlood;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kNoLoss;
  spec.n = 8;
  spec.seed = 11;
  const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
  EXPECT_TRUE(s.ran);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 7u);
  EXPECT_EQ(s.covered, 8u);
  ASSERT_NE(s.full_coverage_round, kNeverRound);
  EXPECT_GE(s.full_coverage_round, 7u);  // at least one round per hop
  EXPECT_GT(s.messages_per_node, 0.0);
}

TEST(RunScenarioMultihop, MisIsIndependentAndMaximalWithAccurateDetector) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGrid;
  spec.workload = WorkloadKind::kMis;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kEcf;
  spec.n = 25;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    spec.seed = seed;
    const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
    EXPECT_TRUE(s.mis_independent) << seed;
    EXPECT_TRUE(s.mis_maximal) << seed;
    EXPECT_GE(s.mis_size, 1u) << seed;
    EXPECT_NE(s.mis_settle_round, kNeverRound) << seed;
  }
}

TEST(RunScenarioMultihop, MisThenConsensusRunsBothPhases) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.workload = WorkloadKind::kMisThenConsensus;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kNoLoss;
  spec.n = 16;
  spec.seed = 3;
  const MultihopSummary s = WorldFactory::run_scenario(spec).mh;
  EXPECT_GE(s.mis_size, 1u);
  ASSERT_TRUE(s.consensus.has_value());
  EXPECT_TRUE(s.consensus->verdict.solved());
}

TEST(SweepRunner, MultihopGridIsThreadCountInvariant) {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMis};
  grid.topologies = {TopologyKind::kLine, TopologyKind::kRandomGeometric};
  grid.losses = {LossKind::kNoLoss, LossKind::kEcf};
  grid.base.detector = DetectorKind::kZeroAC;
  grid.base.n = 12;
  grid.base.density = 2.5;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 77;

  std::string baseline;
  for (unsigned threads : {1u, 4u}) {
    SweepOptions options;
    options.threads = threads;
    const auto records = run_sweep(grid, options);
    const std::string json =
        aggregates_to_json(grid, aggregate(grid, records));
    if (threads == 1) {
      baseline = json;
      // Multihop metrics must actually be populated in the report.
      EXPECT_NE(baseline.find("\"mh\""), std::string::npos);
      EXPECT_NE(baseline.find("\"coverage_rounds\""), std::string::npos);
      EXPECT_NE(baseline.find("\"mis_size\""), std::string::npos);
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
    }
  }
}

TEST(SweepGrid, ValidateAcceptsConsensusOnMultihopTopologies) {
  // Before the RoundEngine unification a consensus workload on a
  // non-singlehop topology was rejected (two executors, one of which
  // ignored the topology axis).  With one engine it is a first-class
  // combination -- the mhloss named grid is built on it.
  SweepGrid grid;  // base: consensus workload, singlehop topology
  EXPECT_FALSE(grid.validate().has_value());

  grid.topologies = {TopologyKind::kLine, TopologyKind::kGrid};
  EXPECT_FALSE(grid.validate().has_value());
  grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMisThenConsensus,
                    WorkloadKind::kConsensus};
  EXPECT_FALSE(grid.validate().has_value());

  // Every named grid must be well-formed.
  for (const std::string& name : SweepGrid::grid_names()) {
    auto named = SweepGrid::named(name);
    ASSERT_TRUE(named.has_value()) << name;
    EXPECT_FALSE(named->validate().has_value()) << name;
  }
}

TEST(SweepGrid, MultihopNamedGridResolvesAndKeepsLegacyNumbering) {
  auto grid = SweepGrid::named("multihop");
  ASSERT_TRUE(grid.has_value());
  EXPECT_GT(grid->num_runs(), 0u);
  // Every cell of the multihop grid is a multihop workload.
  for (std::size_t c = 0; c < grid->num_cells(); ++c) {
    EXPECT_NE(grid->spec_for_cell(c).workload, WorkloadKind::kConsensus);
  }
  // Grids without the new axes enumerate exactly as before (empty axis =
  // radix 1): cell 0 of "default" is still its base product corner.
  auto legacy = SweepGrid::named("default");
  ASSERT_TRUE(legacy.has_value());
  const ScenarioSpec first = legacy->spec_for_cell(0);
  EXPECT_EQ(first.alg, legacy->algs.front());
  EXPECT_EQ(first.detector, legacy->detectors.front());
  EXPECT_EQ(first.topology, TopologyKind::kSingleHop);
  EXPECT_EQ(first.workload, WorkloadKind::kConsensus);
}

}  // namespace
}  // namespace ccd::exp
