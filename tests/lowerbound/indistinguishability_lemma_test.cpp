// The literal Lemma 23 indistinguishability check, at the level of
// Definition 12 process views: through round k, every process of group R
// in the composed gamma execution has EXACTLY the view it has in its solo
// alpha execution -- same sends, same receive multisets, same detector
// advice, same contention advice.  This is the machine-checked core of
// Theorems 4, 6 and 7.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/adversarial_cm.hpp"
#include "cm/leader_election.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "model/indistinguishability.hpp"
#include "net/partition_adversary.hpp"

namespace ccd {
namespace {

/// Solo alpha_P(v) with |P| = n, recording views.
LaneEngine make_alpha_engine(const ConsensusAlgorithm& alg, std::size_t n,
                             Value v) {
  PartitionAdversary::Options loss;
  loss.split = static_cast<std::uint32_t>(n);
  loss.heal_round = kNeverRound;
  LeaderElectionService::Options cm;
  cm.r_lead = 1;
  cm.leader = 0;
  // Definition 24 fixes the advice trace obliviously (min(P) active in
  // every round); the adaptive variant would diverge once processes halt.
  cm.adapt_on_crash = false;
  World world = make_world(
      alg, std::vector<Value>(n, v),
      std::make_unique<LeaderElectionService>(cm),
      std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                       make_truthful_policy()),
      std::make_unique<PartitionAdversary>(loss),
      std::make_unique<NoFailures>());
  return LaneEngine(std::move(world),
                    {.record_rounds = true, .record_views = true});
}

/// Composed gamma over groups of size n with values (va, vb), half-AC
/// prefer-null detector, partition through round k.
LaneEngine make_gamma_engine(const ConsensusAlgorithm& alg, std::size_t n,
                             Value va, Value vb, Round k) {
  std::vector<Value> initials(2 * n, va);
  for (std::size_t i = n; i < 2 * n; ++i) initials[i] = vb;
  PartitionAdversary::Options loss;
  loss.split = static_cast<std::uint32_t>(n);
  loss.heal_round = k + 1;
  World world = make_world(
      alg, std::move(initials),
      std::make_unique<TwoGroupMaxLs>(static_cast<std::uint32_t>(n), k),
      std::make_unique<OracleDetector>(DetectorSpec::HalfAC(),
                                       make_prefer_null_policy()),
      std::make_unique<PartitionAdversary>(loss),
      std::make_unique<NoFailures>());
  return LaneEngine(std::move(world),
                    {.record_rounds = true, .record_views = true});
}

void check_lemma23(const ConsensusAlgorithm& alg, std::size_t n, Value va,
                   Value vb, Round k) {
  LaneEngine alpha_a = make_alpha_engine(alg, n, va);
  LaneEngine alpha_b = make_alpha_engine(alg, n, vb);
  LaneEngine gamma = make_gamma_engine(alg, n, va, vb, k);
  for (Round r = 0; r < k; ++r) {
    alpha_a.step();
    alpha_b.step();
    gamma.step();
  }
  // The lemma's premise: identical basic broadcast count sequences.
  const auto bbc_a =
      alpha_a.log().transmission().basic_broadcast_sequence(k);
  const auto bbc_b =
      alpha_b.log().transmission().basic_broadcast_sequence(k);
  ASSERT_EQ(bbc_a, bbc_b) << "premise violated: pick colliding values";

  // The conclusion: per-process view equality through round k.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(indistinguishable_through(
        alpha_a.log().view(static_cast<ProcessId>(i)),
        gamma.log().view(static_cast<ProcessId>(i)), k))
        << "group R process " << i;
    EXPECT_TRUE(indistinguishable_through(
        alpha_b.log().view(static_cast<ProcessId>(i)),
        gamma.log().view(static_cast<ProcessId>(n + i)), k))
        << "group R' process " << i;
  }
}

TEST(Lemma23, Algorithm1ViewsMatchThroughK) {
  // Any two values collide for Algorithm 1 (its broadcast pattern is
  // value-independent): 1 broadcaster in round 1, none in round 2, ...
  Alg1Algorithm alg;
  check_lemma23(alg, 4, 1, 2, 8);
}

TEST(Lemma23, Algorithm1LargerGroupsAndLongerPrefix) {
  Alg1Algorithm alg;
  check_lemma23(alg, 9, 0, 7, 20);
}

TEST(Lemma23, Algorithm2ViewsMatchForBitSharingValues) {
  // Algorithm 2's bbc depends on the estimate's bits; 0b0101 and 0b0100
  // share their first three propose bits, so their alpha executions agree
  // through prepare + 3 propose rounds = 4 rounds.
  Alg2Algorithm alg(16);
  check_lemma23(alg, 4, 0b0101, 0b0100, 4);
}

TEST(Lemma23, Theorem6Consequence) {
  // The composed execution of two DECIDED alpha prefixes violates
  // agreement: Algorithm 1 decides by round 2 < k in its alphas, so gamma
  // must contain both decisions.
  Alg1Algorithm alg;
  LaneEngine gamma = make_gamma_engine(alg, 4, 3, 9, 10);
  for (Round r = 0; r < 10; ++r) gamma.step();
  const auto verdict =
      check_consensus(gamma.log(), gamma.world().initial_values);
  EXPECT_FALSE(verdict.agreement);
}

TEST(Lemma23, ViewsDivergeAfterTheHeal) {
  // Sanity: the indistinguishability is exactly k rounds long; once the
  // partition heals the groups see each other and views split from the
  // solo executions.  (Halted processes stay halted, so probe with
  // Algorithm 2 and values that keep it cycling.)
  Alg2Algorithm alg(16);
  const Round k = 4;
  LaneEngine alpha = make_alpha_engine(alg, 4, 0b0101);
  LaneEngine gamma = make_gamma_engine(alg, 4, 0b0101, 0b0100, k);
  for (Round r = 0; r < k + 6; ++r) {
    alpha.step();
    gamma.step();
  }
  const Round prefix = indistinguishable_prefix(alpha.log().view(0),
                                                gamma.log().view(0));
  EXPECT_GE(prefix, k);
  EXPECT_LT(prefix, k + 6);
}

}  // namespace
}  // namespace ccd
