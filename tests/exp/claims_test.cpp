// The claims table's predicates: each kind -- a bound over a cell, a
// dichotomy over direct rows, a comparison across cells -- passes on real
// runs, fails once a single input record is corrupted, and names exactly
// that record.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exp/claims.hpp"

namespace ccd::exp {
namespace {

std::vector<RunRecord> run_grid(const SweepGrid& grid) {
  SweepOptions options;
  options.threads = 2;
  return run_sweep(grid, options);
}

// A small Theorem 1 grid: E2's adversarial wiring at a few cells.
std::vector<RunRecord> alg1_runs() {
  SweepGrid grid;
  grid.base.alg = AlgKind::kAlg1;
  grid.base.detector = DetectorKind::kMajOAC;
  grid.base.policy = PolicyKind::kSpurious;
  grid.base.cm = CmKind::kWakeup;
  grid.base.loss = LossKind::kEcf;
  grid.base.chaos = ChaosKind::kChaotic;
  grid.ns = {4, 16};
  grid.csts = {1, 10};
  grid.seeds_per_cell = 5;
  grid.grid_seed = 2025;
  return run_grid(grid);
}

TEST(Claims, BoundOverACellNamesTheCorruptedRun) {
  std::vector<RunRecord> runs = alg1_runs();
  ASSERT_EQ(runs.size(), 20u);
  ASSERT_TRUE(theorem1_bound(runs).pass) << theorem1_bound(runs).why;

  std::vector<RunRecord> late = runs;
  late[13].summary.rounds_after_cst = 3;  // one round past CST + 2
  const Verdict v = theorem1_bound(late);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.at, late[13].run_index);
  ASSERT_TRUE(v.spec.has_value());
  EXPECT_EQ(*v.spec, late[13].spec);
  EXPECT_NE(v.why.find("3 > 2"), std::string::npos) << v.why;

  // An unsolved run is a violation, not a dropped sample; the earliest
  // violating run is the one reported.
  late[6].summary.verdict.termination = false;
  const Verdict first = theorem1_bound(late);
  EXPECT_FALSE(first.pass);
  EXPECT_EQ(first.at, late[6].run_index);
  EXPECT_EQ(first.why, "did not terminate");
}

TEST(Claims, DichotomyOverDirectRowsNamesTheCorruptedRow) {
  std::vector<CompositionRun> naive(3);
  for (CompositionRun& row : naive) {
    row.second.summary.verdict.agreement = false;
    row.second.summary.verdict.decided_values = {1, 2};
  }
  std::vector<RunSummary> safe(2);  // never decided, never terminated
  ASSERT_TRUE(nocd_dichotomy(naive, safe).pass);

  std::vector<CompositionRun> agreeing = naive;
  agreeing[1].second.summary.verdict.agreement = true;
  Verdict v = nocd_dichotomy(agreeing, safe);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.at, 1u);
  EXPECT_FALSE(v.spec.has_value());  // direct rows carry no spec

  std::vector<RunSummary> deciding = safe;
  deciding[1].verdict.decided_values = {4};
  v = nocd_dichotomy(naive, deciding);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.at, naive.size() + 1);  // rows count naive first, then safe
}

TEST(Claims, ComparisonAcrossCellsNamesTheCorruptedRun) {
  SweepGrid grid;
  grid.base.workload = WorkloadKind::kFlood;
  grid.base.loss = LossKind::kEcf;
  grid.base.topology = TopologyKind::kGrid;
  grid.base.n = 36;
  grid.detectors = {DetectorKind::kNoCd, DetectorKind::kZeroAC};
  grid.seeds_per_cell = 8;
  grid.grid_seed = 7;
  std::vector<RunRecord> runs = run_grid(grid);
  ASSERT_EQ(runs.size(), 16u);
  const auto nocd = std::span<const RunRecord>(runs).first(8);
  auto cd = std::span<RunRecord>(runs).last(8);
  ASSERT_TRUE(cd_backoff_faster(nocd, cd).pass)
      << cd_backoff_faster(nocd, cd).why;

  // One pathologically slow CD-backoff run drags its cell's mean above
  // no-CD flooding; the comparison blames that run.
  cd[5].mh.full_coverage_round = 100000;
  const Verdict v = cd_backoff_faster(nocd, cd);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.at, cd[5].run_index);
  ASSERT_TRUE(v.spec.has_value());
  EXPECT_EQ(*v.spec, cd[5].spec);

  // An uncovered run fails the claim before any mean is compared.
  cd[2].mh.full_coverage_round = kNeverRound;
  EXPECT_EQ(cd_backoff_faster(nocd, cd).at, cd[2].run_index);
}

TEST(Claims, TableCoversTheFourteenExperiments) {
  std::set<std::string> ids;
  for (const Experiment& e : experiments()) ids.insert(e.id);
  EXPECT_EQ(ids.size(), 14u);
  EXPECT_EQ(ids.count("E12"), 0u);  // round throughput: ccd_bench, no claim
  EXPECT_EQ(ids.count("E1"), 1u);
  EXPECT_EQ(ids.count("E15"), 1u);
}

}  // namespace
}  // namespace ccd::exp
