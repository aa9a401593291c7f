// The non-anonymous Section 7.3 protocol: CST + O(min{lg|V|, lg|I|}), with
// leader-failure recovery.  Includes the reproduction of the literal
// decision rule's unsafety and the hardened rule's fix (see the header of
// consensus/alg4_non_anonymous.hpp).
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg4_non_anonymous.hpp"
#include "consensus/harness.hpp"
#include "fault/failure_adversary.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "scripted_drop_loss.hpp"

namespace ccd {
namespace {

World alg4_world(const Alg4Algorithm& alg, std::vector<Value> initials,
                 std::unique_ptr<LossAdversary> loss,
                 std::unique_ptr<FailureAdversary> fault, Round cst = 1) {
  WakeupService::Options ws;
  ws.r_wake = cst;
  return make_world(alg, std::move(initials),
                    std::make_unique<WakeupService>(ws),
                    std::make_unique<OracleDetector>(
                        DetectorSpec::ZeroOAC(cst), make_truthful_policy()),
                    std::move(loss), std::move(fault));
}

TEST(Alg4, DirectModeWhenValuesFitIdSpace) {
  // |V| <= |I|: the protocol is exactly Algorithm 2 over the values.
  Alg4Algorithm alg(/*num_values=*/16, /*id_space=*/1 << 20);
  EcfAdversary::Options ecf;
  ecf.r_cf = 4;
  ecf.seed = 2;
  World world = alg4_world(alg, random_initial_values(6, 16, 2),
                           std::make_unique<EcfAdversary>(ecf),
                           std::make_unique<NoFailures>(), 4);
  const RunSummary summary = run_consensus(std::move(world), 200);
  EXPECT_TRUE(summary.verdict.solved());
  // Direct mode pays lg|V|, not lg|I|.
  EXPECT_LE(summary.rounds_after_cst, 2u * (4 + 1));
}

TEST(Alg4, LeaderModeDecidesFast) {
  // |V| >> |I|: elect on the 16-element ID space (lg = 4), then one
  // announce/confirm exchange -- O(lg|I|), not O(lg|V|).
  Alg4Algorithm alg(/*num_values=*/1 << 20, /*id_space=*/16);
  World world = alg4_world(alg, {5000, 70000, 123456, 999999},
                           std::make_unique<NoLoss>(),
                           std::make_unique<NoFailures>());
  const RunSummary summary = run_consensus(std::move(world), 300);
  ASSERT_TRUE(summary.verdict.solved());
  // Leader is the min ID (process 0), announcing its own value.
  EXPECT_EQ(summary.verdict.decided_values[0], 5000u);
  // 6 election steps * 3 rounds/step + announce + veto + slack.
  EXPECT_LE(summary.verdict.last_decision_round, 30u);
}

TEST(Alg4, LeaderModeSurvivesCleanLeaderCrash) {
  // The benign failure pattern the paper considers: the leader dies before
  // ANY announcement.  Detection (silent phase 2) and re-election handle
  // it under both decision rules.
  for (const auto rule :
       {Alg4DecisionRule::kHardened, Alg4DecisionRule::kLiteral}) {
    Alg4Algorithm alg(1 << 20, 16, rule);
    // Election decides at round 16 (see timeline in the sibling test);
    // kill the leader before its first announcement at round 17.
    World world = alg4_world(
        alg, {100, 200, 300, 400}, std::make_unique<NoLoss>(),
        std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
            {17, 0, CrashPoint::kBeforeSend}}));
    const RunSummary summary = run_consensus(std::move(world), 500);
    EXPECT_TRUE(summary.verdict.agreement);
    EXPECT_TRUE(summary.verdict.strong_validity);
    EXPECT_TRUE(summary.verdict.termination);
    // The re-elected leader announces a survivor's value.
    EXPECT_NE(summary.verdict.decided_values[0], 100u);
  }
}

// ---- The partial-delivery crash: literal rule breaks, hardened holds ----
//
// Timeline (n = 4, ids 0..3, id space 16, election cycle = 6 election
// rounds at global rounds 1,4,7,10,13,16):
//   round 16  election decides leader = id 0
//   round 17  leader announces; the adversary delivers ONLY to process 1
//             (processes 2,3 get the zero-completeness-forced +- instead)
//   round 20  leader crashes before its re-announcement -> silent phase 2
//             -> survivors detect the failure and re-elect.
// Under the literal rule process 1 decided the leader's value at round 17
// and halted; the re-elected leader announces its OWN value -> violation.
// Under the hardened rule process 1 only ADOPTED the value; the re-elected
// leader (process 1, min alive id) re-announces the adopted value.

ScriptedDropLoss::Drop drop(Round r, std::uint32_t recv, std::uint32_t send) {
  return {r, recv, send};
}

TEST(Alg4, LiteralRuleViolatesAgreementUnderPartialDeliveryCrash) {
  Alg4Algorithm alg(1 << 20, 16, Alg4DecisionRule::kLiteral);
  World world = alg4_world(
      alg, {100, 200, 300, 400},
      std::make_unique<ScriptedDropLoss>(
          std::vector<ScriptedDropLoss::Drop>{drop(17, 2, 0), drop(17, 3, 0)},
          /*r_cf=*/21),
      std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
          {20, 0, CrashPoint::kBeforeSend}}));
  const RunSummary summary = run_consensus(std::move(world), 500);
  EXPECT_FALSE(summary.verdict.agreement)
      << "the literal Section 7.3 rule should split the decision here";
  ASSERT_GE(summary.verdict.decided_values.size(), 2u);
  // Process 1 decided the dead leader's value...
  EXPECT_EQ(summary.verdict.decided_values[0], 100u);
  // ...while the survivors decided the new leader's value.
  EXPECT_EQ(summary.verdict.decided_values[1], 300u);
}

TEST(Alg4, HardenedRuleSurvivesPartialDeliveryCrash) {
  Alg4Algorithm alg(1 << 20, 16, Alg4DecisionRule::kHardened);
  World world = alg4_world(
      alg, {100, 200, 300, 400},
      std::make_unique<ScriptedDropLoss>(
          std::vector<ScriptedDropLoss::Drop>{drop(17, 2, 0), drop(17, 3, 0)},
          /*r_cf=*/21),
      std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
          {20, 0, CrashPoint::kBeforeSend}}));
  const RunSummary summary = run_consensus(std::move(world), 500);
  EXPECT_TRUE(summary.verdict.agreement);
  EXPECT_TRUE(summary.verdict.termination);
  ASSERT_EQ(summary.verdict.decided_values.size(), 1u);
  // The adopted announcement (the dead leader's value) is re-broadcast by
  // the re-elected leader, preserving the possibly-decided value.
  EXPECT_EQ(summary.verdict.decided_values[0], 100u);
}

TEST(Alg4, HardenedSafeUnderRandomChaos) {
  // Fuzz: random loss before CST, spurious detector reports, random
  // crashes.  Safety must hold for every seed; termination whenever the
  // run ends with at least one correct process and stabilization happened.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Alg4Algorithm alg(1 << 16, 32);
    EcfAdversary::Options ecf;
    ecf.r_cf = 40;
    ecf.p_deliver = 0.6;
    ecf.seed = seed;
    RandomCrash::Options crash;
    crash.p = 0.01;
    crash.stop_after = 35;
    crash.seed = seed * 3;
    WakeupService::Options ws;
    ws.r_wake = 40;
    World world = make_world(
        alg, random_initial_values(8, 1 << 16, seed),
        std::make_unique<WakeupService>(ws),
        std::make_unique<OracleDetector>(
            DetectorSpec::ZeroOAC(40),
            std::make_unique<SpuriousPolicy>(0.2, 40, seed * 5)),
        std::make_unique<EcfAdversary>(ecf),
        std::make_unique<RandomCrash>(crash));
    const RunSummary summary = run_consensus(std::move(world), 1500);
    EXPECT_TRUE(summary.verdict.agreement) << "seed " << seed;
    EXPECT_TRUE(summary.verdict.strong_validity) << "seed " << seed;
    EXPECT_TRUE(summary.verdict.termination) << "seed " << seed;
  }
}

TEST(Alg4, ScalesWithMinOfLogVLogI) {
  // Leader mode beats direct Algorithm 2 once |I| << |V|: compare decision
  // rounds on a huge value space with a tiny ID space.
  Alg4Algorithm small_ids(1ull << 40, 16);
  World w1 = alg4_world(small_ids, {1ull << 35, 1ull << 36, 7, 9},
                        std::make_unique<NoLoss>(),
                        std::make_unique<NoFailures>());
  const RunSummary leader_mode = run_consensus(std::move(w1), 500);
  ASSERT_TRUE(leader_mode.verdict.solved());

  Alg4Algorithm huge_ids(1ull << 40, 1ull << 60);  // direct mode
  World w2 = alg4_world(huge_ids, {1ull << 35, 1ull << 36, 7, 9},
                        std::make_unique<NoLoss>(),
                        std::make_unique<NoFailures>());
  const RunSummary direct_mode = run_consensus(std::move(w2), 500);
  ASSERT_TRUE(direct_mode.verdict.solved());

  // lg|I| = 4 vs lg|V| = 40: the election path is much faster.
  EXPECT_LT(leader_mode.verdict.last_decision_round,
            direct_mode.verdict.last_decision_round);
}

}  // namespace
}  // namespace ccd
