// Algorithm 1 (maj-<>AC, WS, ECF): Theorem 1 says consensus is solved and
// every correct process decides by CST + 2, for ANY legal detector in
// maj-<>AC, any wake-up service, any ECF loss pattern and any crash
// pattern.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/harness.hpp"
#include "fault/failure_adversary.hpp"
#include "lowerbound/composition.hpp"
#include "net/capture_effect.hpp"
#include "net/ecf_adversary.hpp"
#include "scripted_drop_loss.hpp"

namespace ccd {
namespace {

struct Alg1Params {
  std::size_t n;
  std::uint64_t num_values;
  Round cst_target;
  std::uint64_t seed;
};

class Alg1Sweep : public ::testing::TestWithParam<Alg1Params> {};

TEST_P(Alg1Sweep, DecidesByCstPlusTwo) {
  const Alg1Params p = GetParam();
  Alg1Algorithm alg;

  WakeupService::Options ws;
  ws.r_wake = p.cst_target;
  ws.pre = WakeupService::PreStabilization::kRandomSubset;
  ws.post = WakeupService::PostStabilization::kRotateAlive;
  ws.seed = p.seed;

  EcfAdversary::Options ecf;
  ecf.r_cf = p.cst_target;
  ecf.pre = EcfAdversary::PreMode::kCapture;
  ecf.contention = EcfAdversary::ContentionMode::kCapture;
  ecf.seed = p.seed + 1;

  World world = make_world(
      alg, random_initial_values(p.n, p.num_values, p.seed + 2),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(
          DetectorSpec::MajOAC(p.cst_target),
          std::make_unique<SpuriousPolicy>(0.4, p.cst_target, p.seed + 3)),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());

  const RunSummary summary =
      run_consensus(std::move(world), p.cst_target + 50);
  EXPECT_TRUE(summary.verdict.solved());
  EXPECT_LE(summary.rounds_after_cst, 2u)
      << "Theorem 1 bound violated (CST=" << summary.cst << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Alg1Sweep,
    ::testing::Values(Alg1Params{2, 2, 1, 11}, Alg1Params{2, 2, 9, 12},
                      Alg1Params{4, 8, 1, 13}, Alg1Params{4, 8, 17, 14},
                      Alg1Params{8, 1024, 5, 15},
                      Alg1Params{16, 1u << 16, 25, 16},
                      Alg1Params{32, 3, 40, 17}, Alg1Params{64, 7, 12, 18},
                      Alg1Params{5, 5, 33, 19}, Alg1Params{23, 100, 8, 20}));

TEST(Alg1, ToleratesCrashes) {
  Alg1Algorithm alg;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WakeupService::Options ws;
    ws.r_wake = 30;
    EcfAdversary::Options ecf;
    ecf.r_cf = 30;
    ecf.seed = seed;
    RandomCrash::Options crash;
    crash.p = 0.05;
    crash.stop_after = 25;
    crash.seed = seed * 7;

    World world = make_world(
        alg, random_initial_values(10, 64, seed),
        std::make_unique<WakeupService>(ws),
        std::make_unique<OracleDetector>(DetectorSpec::MajOAC(30),
                                         make_truthful_policy()),
        std::make_unique<EcfAdversary>(ecf),
        std::make_unique<RandomCrash>(crash));
    const RunSummary summary = run_consensus(std::move(world), 200);
    EXPECT_TRUE(summary.verdict.agreement) << "seed " << seed;
    EXPECT_TRUE(summary.verdict.strong_validity) << "seed " << seed;
    EXPECT_TRUE(summary.verdict.termination) << "seed " << seed;
  }
}

TEST(Alg1, UniformValidityWhenAllStartEqual) {
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 5;
  EcfAdversary::Options ecf;
  ecf.r_cf = 5;
  World world = make_world(
      alg, std::vector<Value>(6, 42),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(5),
                                       make_truthful_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  const RunSummary summary = run_consensus(std::move(world), 100);
  ASSERT_TRUE(summary.verdict.solved());
  ASSERT_EQ(summary.verdict.decided_values.size(), 1u);
  EXPECT_EQ(summary.verdict.decided_values[0], 42u);
}

TEST(Alg1, SafeUnderAdversarialPreferCollisionDetector) {
  // A maximally noisy (but legal) maj-<>AC detector can only delay
  // Algorithm 1, never break it.
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 12;
  EcfAdversary::Options ecf;
  ecf.r_cf = 12;
  World world = make_world(
      alg, split_initial_values(8, 3, 9),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(12),
                                       make_prefer_collision_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  const RunSummary summary = run_consensus(std::move(world), 100);
  EXPECT_TRUE(summary.verdict.solved());
  EXPECT_LE(summary.rounds_after_cst, 2u);
}

// ---- The majority/half boundary (Lemma 5 vs Lemma 23) ------------------

TEST(Alg1, ViolatesAgreementUnderHalfCompleteDetector) {
  // Algorithm 1 REQUIRES majority completeness.  Handing it a merely
  // half-complete detector lets the Lemma 23 adversary partition the
  // network into two groups that each decide their own value: the
  // "exactly half received" rounds pass unreported.
  Alg1Algorithm alg;
  CompositionConfig config;
  config.group_size = 4;
  config.value_a = 1;
  config.value_b = 2;
  config.k = 20;
  config.spec = DetectorSpec::HalfAC();
  config.max_rounds = 100;
  const CompositionOutcome outcome = run_composition(alg, config);
  EXPECT_TRUE(outcome.groups_disagree)
      << "expected the half-AC adversary to split the decision";
  EXPECT_FALSE(outcome.summary.verdict.agreement);
  // The split happens fast: both groups decide by round 2 (the first
  // proposal/veto cycle), well inside the partition window.
  EXPECT_LE(outcome.group_a_last_decision, config.k);
  EXPECT_LE(outcome.group_b_last_decision, config.k);
}

TEST(Alg1, SameAdversaryIsHarmlessWithMajorityCompleteness) {
  // Identical execution, but the detector must satisfy MAJORITY
  // completeness: the one extra forced report (exactly half lost) blocks
  // every premature decision, and agreement survives the partition.
  Alg1Algorithm alg;
  CompositionConfig config;
  config.group_size = 4;
  config.value_a = 1;
  config.value_b = 2;
  config.k = 20;
  config.spec = DetectorSpec::MajAC();
  config.max_rounds = 300;
  const CompositionOutcome outcome = run_composition(alg, config);
  EXPECT_TRUE(outcome.summary.verdict.agreement);
  EXPECT_TRUE(outcome.summary.verdict.termination);
  // No decision can precede the heal: the groups are indistinguishable
  // from their solo executions until round k.
  EXPECT_GT(outcome.summary.verdict.first_decision_round, config.k);
}

TEST(Alg1, VetoOnTwoValuesKeepsAgreementUnderMajorityLoss) {
  // The hand tape for a veto rule that fires only on three or more distinct
  // proposals.  n = 3, |V| = 2: A and C propose 1, B proposes 0, everyone
  // active.  In round 1 B's message is lost at A and at C, who hear 2 of 3
  // messages -- maj-completeness lets a prefer-null detector stay silent --
  // and adopt 1; B hears both values.  Only B's veto in round 2 stops A and
  // C from deciding 1 while B keeps 0 (the minimum) and decides it later.
  Alg1Algorithm alg;
  const ScriptedDropLoss::Drop drops[] = {{1, 0, 1}, {1, 2, 1}};
  World world = make_world(
      alg, {1, 0, 1}, std::make_unique<NoCm>(),
      std::make_unique<OracleDetector>(DetectorSpec::MajOAC(1),
                                       make_prefer_null_policy()),
      std::make_unique<ScriptedDropLoss>(
          std::vector<ScriptedDropLoss::Drop>(std::begin(drops),
                                              std::end(drops)),
          /*r_cf=*/2),
      std::make_unique<NoFailures>());
  const RunSummary summary = run_consensus(std::move(world), 40);
  EXPECT_TRUE(summary.verdict.agreement);
  EXPECT_TRUE(summary.verdict.strong_validity);
  EXPECT_TRUE(summary.verdict.termination);
}

TEST(Alg1, NeverTerminatesWithNoCdDetector) {
  // Theorem 4's liveness half: with a NoCD detector (always +-) the decide
  // guard can never pass, so Algorithm 1 simply never decides.
  Alg1Algorithm alg;
  WakeupService::Options ws;
  ws.r_wake = 1;
  EcfAdversary::Options ecf;
  ecf.r_cf = 1;
  World world = make_world(
      alg, random_initial_values(4, 4, 3),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::NoCD(),
                                       make_prefer_null_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  const RunSummary summary = run_consensus(std::move(world), 500);
  EXPECT_FALSE(summary.verdict.termination);
  EXPECT_TRUE(summary.verdict.decided_values.empty());
}

}  // namespace
}  // namespace ccd
