#include "consensus/harness.hpp"

#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "fault/failure_adversary.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {
namespace {

TEST(Harness, RandomInitialValuesDeterministicPerSeed) {
  const auto a = random_initial_values(10, 100, 5);
  const auto b = random_initial_values(10, 100, 5);
  const auto c = random_initial_values(10, 100, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (Value v : a) EXPECT_LT(v, 100u);
}

TEST(Harness, SplitInitialValues) {
  const auto values = split_initial_values(5, 1, 9);
  EXPECT_EQ(values, (std::vector<Value>{1, 1, 9, 9, 9}));
  const auto even = split_initial_values(4, 0, 7);
  EXPECT_EQ(even, (std::vector<Value>{0, 0, 7, 7}));
}

TEST(Harness, InstantiateAssignsSequentialIds) {
  Alg1Algorithm alg;
  const std::vector<Value> initials = {1, 2, 3};
  const auto processes = instantiate(alg, initials, /*id_base=*/100);
  EXPECT_EQ(processes.size(), 3u);
  for (const auto& p : processes) EXPECT_FALSE(p->decided());
}

TEST(Harness, WorldCstIsMaxOfComponents) {
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 7;
  EcfAdversary::Options ecf;
  ecf.r_cf = 19;
  World world = make_world(
      alg, {1, 2}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(13),
                                       make_truthful_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  EXPECT_EQ(world.cst(), 19u);  // max{19, 13, 7}
}

TEST(Harness, AccurateDetectorContributesRoundOne) {
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 3;
  World world = make_world(
      alg, {1, 2}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajAC(),
                                       make_truthful_policy()),
      std::make_unique<NoLoss>(), std::make_unique<NoFailures>());
  EXPECT_EQ(world.cst(), 3u);  // max{1, 1, 3}
}

TEST(Harness, NoGuaranteeComponentsYieldNoCst) {
  Alg1Algorithm alg;
  // NoCM contributes kNeverRound.
  World w1 = make_world(
      alg, {1, 2}, std::make_unique<NoCm>(),
      std::make_unique<OracleDetector>(DetectorSpec::MajAC(),
                                       make_truthful_policy()),
      std::make_unique<NoLoss>(), std::make_unique<NoFailures>());
  EXPECT_EQ(w1.cst(), kNeverRound);
  // NoCF loss contributes kNeverRound.
  WakeupService::Options ws;
  World w2 = make_world(
      alg, {1, 2}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajAC(),
                                       make_truthful_policy()),
      std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{}),
      std::make_unique<NoFailures>());
  EXPECT_EQ(w2.cst(), kNeverRound);
  // No-accuracy detector contributes kNeverRound.
  World w3 = make_world(
      alg, {1, 2}, std::make_unique<WakeupService>(WakeupService::Options{}),
      std::make_unique<OracleDetector>(DetectorSpec::NoAcc(),
                                       make_truthful_policy()),
      std::make_unique<NoLoss>(), std::make_unique<NoFailures>());
  EXPECT_EQ(w3.cst(), kNeverRound);
}

TEST(Harness, RunSummaryRoundsAfterCst) {
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 10;
  EcfAdversary::Options ecf;
  ecf.r_cf = 10;
  ecf.pre = EcfAdversary::PreMode::kDropOthers;
  World world = make_world(
      alg, {4, 4, 4}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(10),
                                       make_truthful_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  const RunSummary s = run_consensus(std::move(world), 100);
  ASSERT_TRUE(s.verdict.solved());
  EXPECT_EQ(s.cst, 10u);
  EXPECT_EQ(s.rounds_after_cst,
            s.verdict.last_decision_round - s.cst);
  EXPECT_LE(s.rounds_after_cst, 2u);
}

/// A two-process log where both decide `v`, the later one at `last`.
ExecutionLog decided_log(Round first, Round last, Value v) {
  ExecutionLog log(2, /*record_views=*/false);
  log.record_decision(0, first, v);
  log.record_decision(1, last, v);
  return log;
}

TEST(Harness, SummarizeCountsADecisionBeforeCstAsZero) {
  const RunSummary before =
      summarize_consensus(10, {}, decided_log(3, 4, 7), {7, 7});
  ASSERT_TRUE(before.verdict.solved());
  EXPECT_EQ(before.cst, 10u);
  EXPECT_EQ(before.verdict.last_decision_round, 4u);
  EXPECT_EQ(before.rounds_after_cst, 0u);
  // At CST it is still 0; past it, the surplus.
  EXPECT_EQ(summarize_consensus(4, {}, decided_log(3, 4, 7), {7, 7})
                .rounds_after_cst,
            0u);
  EXPECT_EQ(summarize_consensus(2, {}, decided_log(3, 4, 7), {7, 7})
                .rounds_after_cst,
            2u);
}

TEST(Harness, SummarizeLeavesZeroWithoutAFiniteCst) {
  const RunSummary s =
      summarize_consensus(kNeverRound, {}, decided_log(5, 9, 1), {1, 2});
  ASSERT_TRUE(s.verdict.solved());
  EXPECT_EQ(s.cst, kNeverRound);
  EXPECT_EQ(s.verdict.last_decision_round, 9u);
  EXPECT_EQ(s.rounds_after_cst, 0u);
}

TEST(Harness, MaxRoundsCapsNonTerminatingRuns) {
  Alg1Algorithm alg;
  WakeupService::Options ws;
  World world = make_world(
      alg, {1, 2}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::NoCD(),
                                       make_prefer_null_policy()),
      std::make_unique<NoLoss>(), std::make_unique<NoFailures>());
  const RunSummary s = run_consensus(std::move(world), 77);
  EXPECT_FALSE(s.verdict.termination);
  EXPECT_EQ(s.result.rounds_executed, 77u);
}

}  // namespace
}  // namespace ccd
