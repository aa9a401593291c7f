// Cross-algorithm edge cases: degenerate sizes, adversarial contention
// schedules, mass crashes.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/alg3_zero_ac_nocf.hpp"
#include "consensus/alg4_non_anonymous.hpp"
#include "consensus/harness.hpp"
#include "fault/failure_adversary.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {
namespace {

World ecf_world(const ConsensusAlgorithm& alg, std::vector<Value> initials,
                std::unique_ptr<FailureAdversary> fault, Round cst = 1,
                std::uint64_t seed = 1) {
  WakeupService::Options ws;
  ws.r_wake = cst;
  EcfAdversary::Options ecf;
  ecf.r_cf = cst;
  ecf.seed = seed;
  return make_world(alg, std::move(initials),
                    std::make_unique<WakeupService>(ws),
                    std::make_unique<OracleDetector>(
                        DetectorSpec::ZeroOAC(cst), make_truthful_policy()),
                    std::make_unique<EcfAdversary>(ecf), std::move(fault));
}

TEST(EdgeCases, EmptyWorldIsVacuouslySolved) {
  // n = 0: no sends, no decisions, no crashes; every property holds
  // vacuously and run_consensus returns without executing a round.
  Alg1Algorithm alg;
  auto s = run_consensus(ecf_world(alg, {}, std::make_unique<NoFailures>()),
                         100);
  EXPECT_TRUE(s.result.all_correct_decided);
  EXPECT_EQ(s.result.rounds_executed, 0u);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_TRUE(s.verdict.termination);
  EXPECT_TRUE(s.verdict.decided_values.empty());
}

TEST(EdgeCases, EmptyWorldWithoutEarlyStopDoesNotSpin) {
  Alg2Algorithm alg(16);
  EngineOptions options;
  options.stop_when_all_decided = false;
  auto s = run_consensus(ecf_world(alg, {}, std::make_unique<NoFailures>()),
                         1000, options);
  EXPECT_EQ(s.result.rounds_executed, 0u);
  EXPECT_TRUE(s.verdict.termination);
}

TEST(EdgeCases, WorldWithMissingComponentsGetsNeutralDefaults) {
  // A caller-assembled World may omit components; the engine substitutes
  // NoCM / NoCD / NoLoss / NoFailures instead of dereferencing null.
  Alg1Algorithm alg;
  World world;
  world.processes = instantiate(alg, {3, 3});
  world.initial_values = {3, 3};
  // cm, cd, loss, fault all left null.
  auto s = run_consensus(std::move(world), 50);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_TRUE(s.verdict.strong_validity);
  // With the NoCD default the detector reports +- forever, so Algorithm 1
  // never passes a veto round: safety intact, no termination.
  EXPECT_FALSE(s.verdict.termination);
}

TEST(EdgeCases, EveryProcessCrashesInOpeningRound) {
  // All crash before their first send: nobody ever broadcasts or decides.
  // Termination is vacuous (no correct process), safety holds, and the run
  // stops immediately instead of burning max_rounds.
  Alg1Algorithm alg;
  std::vector<CrashEvent> events;
  for (ProcessId i = 0; i < 4; ++i) {
    events.push_back({1, i, CrashPoint::kBeforeSend});
  }
  auto s = run_consensus(
      ecf_world(alg, random_initial_values(4, 8, 2),
                std::make_unique<ScheduledCrash>(events)),
      500);
  EXPECT_EQ(s.result.num_crashed, 4u);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_TRUE(s.verdict.termination);  // vacuous: no correct process
  EXPECT_TRUE(s.verdict.decided_values.empty());
  EXPECT_LE(s.result.rounds_executed, 2u);
}

TEST(EdgeCases, SingleProcessEveryAlgorithm) {
  // n = 1: a lone device must still decide its own value.
  {
    Alg1Algorithm alg;
    auto s = run_consensus(
        ecf_world(alg, {7}, std::make_unique<NoFailures>()), 100);
    ASSERT_TRUE(s.verdict.solved());
    EXPECT_EQ(s.verdict.decided_values[0], 7u);
  }
  {
    Alg2Algorithm alg(16);
    auto s = run_consensus(
        ecf_world(alg, {7}, std::make_unique<NoFailures>()), 100);
    ASSERT_TRUE(s.verdict.solved());
    EXPECT_EQ(s.verdict.decided_values[0], 7u);
  }
  {
    Alg3Algorithm alg(16);
    World world = make_world(
        alg, {7}, std::make_unique<NoCm>(),
        std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                         make_truthful_policy()),
        std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{}),
        std::make_unique<NoFailures>());
    auto s = run_consensus(std::move(world), 200);
    ASSERT_TRUE(s.verdict.solved());
    EXPECT_EQ(s.verdict.decided_values[0], 7u);
  }
  {
    Alg4Algorithm alg(1 << 20, 16);
    auto s = run_consensus(
        ecf_world(alg, {7}, std::make_unique<NoFailures>()), 300);
    ASSERT_TRUE(s.verdict.solved());
    EXPECT_EQ(s.verdict.decided_values[0], 7u);
  }
}

TEST(EdgeCases, BinaryValueSpace) {
  // |V| = 2 (commit/abort): the smallest interesting instance, called out
  // in the paper's conclusion ("deciding to commit or abort").
  Alg2Algorithm alg(2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto s = run_consensus(
        ecf_world(alg, split_initial_values(6, 0, 1),
                  std::make_unique<NoFailures>(), 5, seed),
        200);
    EXPECT_TRUE(s.verdict.solved());
    EXPECT_LE(s.rounds_after_cst, Alg2Algorithm::round_bound_after_cst(2));
  }
}

TEST(EdgeCases, AllButOneCrash) {
  Alg1Algorithm alg;
  std::vector<CrashEvent> events;
  for (ProcessId i = 1; i < 8; ++i) {
    events.push_back({static_cast<Round>(i), i, CrashPoint::kBeforeSend});
  }
  auto s = run_consensus(
      ecf_world(alg, random_initial_values(8, 16, 3),
                std::make_unique<ScheduledCrash>(events), 12),
      200);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_TRUE(s.verdict.termination);  // the lone survivor decides
}

TEST(EdgeCases, MassSimultaneousCrash) {
  Alg2Algorithm alg(64);
  std::vector<CrashEvent> events;
  for (ProcessId i = 0; i < 6; ++i) {
    events.push_back({4, i, CrashPoint::kAfterSend});
  }
  // 6 of 10 die in the same round, messages in flight.
  auto s = run_consensus(
      ecf_world(alg, random_initial_values(10, 64, 4),
                std::make_unique<ScheduledCrash>(events), 10),
      400);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_TRUE(s.verdict.strong_validity);
  EXPECT_TRUE(s.verdict.termination);
}

TEST(EdgeCases, DeadFixedLeaderForfeitsLivenessNotSafety) {
  // The formally-legal WS that pins a crashed process active forever: the
  // algorithm must hang (no lone broadcaster ever) but never misbehave.
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 1;
  ws.post = WakeupService::PostStabilization::kFixedMin;
  EcfAdversary::Options ecf;
  ecf.r_cf = 1;
  World world = make_world(
      alg, {3, 5, 5}, std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(1),
                                       make_truthful_policy()),
      std::make_unique<EcfAdversary>(ecf),
      std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
          {1, 0, CrashPoint::kBeforeSend}}));
  auto s = run_consensus(std::move(world), 500);
  EXPECT_TRUE(s.verdict.agreement);
  EXPECT_FALSE(s.verdict.termination);
}

TEST(EdgeCases, MaxValueInLargeSpace) {
  // The largest codeword (all-ones bits) exercises every propose round.
  const std::uint64_t space = 1ull << 20;
  Alg2Algorithm alg(space);
  auto s = run_consensus(
      ecf_world(alg, {space - 1, space - 1, space - 1},
                std::make_unique<NoFailures>()),
      300);
  ASSERT_TRUE(s.verdict.solved());
  EXPECT_EQ(s.verdict.decided_values[0], space - 1);
}

TEST(EdgeCases, Alg3ExtremeLeafValues) {
  // Min and max leaves of the BST: deepest descents on both flanks.
  const std::uint64_t space = 1ull << 10;
  Alg3Algorithm alg(space);
  for (Value v : {Value{0}, space - 1}) {
    World world = make_world(
        alg, {v, v}, std::make_unique<NoCm>(),
        std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                         make_truthful_policy()),
        std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{}),
        std::make_unique<NoFailures>());
    auto s = run_consensus(std::move(world), 2000);
    ASSERT_TRUE(s.verdict.solved()) << v;
    EXPECT_EQ(s.verdict.decided_values[0], v);
  }
}

TEST(EdgeCases, LateStabilizationStressesPreCstPhase) {
  // CST = 200: hundreds of chaotic rounds before the guarantees kick in.
  Alg1Algorithm alg;
  auto s = run_consensus(
      ecf_world(alg, random_initial_values(8, 32, 9),
                std::make_unique<NoFailures>(), 200, 9),
      400);
  EXPECT_TRUE(s.verdict.solved());
  EXPECT_LE(s.rounds_after_cst, 2u);
}

TEST(EdgeCases, PerfectChannelIsAlsoLegal) {
  // Loss is never FORCED by the model; a perfect channel is one legal
  // behaviour and everything still works (trivially).
  Alg2Algorithm alg(32);
  WakeupService::Options ws;
  ws.r_wake = 1;
  World world = make_world(
      alg, random_initial_values(6, 32, 11),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::ZeroOAC(1),
                                       make_truthful_policy()),
      std::make_unique<NoLoss>(), std::make_unique<NoFailures>());
  auto s = run_consensus(std::move(world), 100);
  EXPECT_TRUE(s.verdict.solved());
}

}  // namespace
}  // namespace ccd
