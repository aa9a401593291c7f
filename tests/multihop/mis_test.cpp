#include "multihop/mis.hpp"

#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "engine/lane_engine.hpp"

namespace ccd {
namespace {

struct MisRun {
  std::vector<MisProcess::State> states;
  bool all_settled = false;
  Round settled_at = 0;
};

MisRun run_mis(const Topology& topo, DetectorSpec spec,
               std::unique_ptr<AdvicePolicy> policy, MhLinkModel link,
               std::uint64_t seed, Round max_rounds = 4000) {
  std::vector<std::unique_ptr<Process>> procs;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    MisProcess::Options o;
    o.seed = seed * 1000 + i;
    procs.push_back(std::make_unique<MisProcess>(o));
  }
  // One lane on the multihop channel: capture-effect physics, local
  // detector counts.
  EngineWorld ew;
  ew.world.processes = std::move(procs);
  ew.world.cd = std::make_unique<OracleDetector>(spec, std::move(policy));
  ew.topology = std::make_shared<const Topology>(topo);
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = link;
  ew.link_seed = seed;
  LaneEngine ex(std::move(ew));
  MisRun run;
  for (Round r = 1; r <= max_rounds; ++r) {
    ex.step();
    bool all = true;
    for (std::size_t i = 0; i < ex.size(); ++i) {
      const auto& p = static_cast<const MisProcess&>(ex.process(i));
      if (!p.settled()) all = false;
      // Dormant iff dominated, every round of every run.
      EXPECT_EQ(p.dormant(), p.state() == MisProcess::State::kDominated)
          << "process " << i << " round " << r;
    }
    if (all) {
      run.all_settled = true;
      run.settled_at = r;
      break;
    }
  }
  for (std::size_t i = 0; i < ex.size(); ++i) {
    run.states.push_back(static_cast<MisProcess&>(ex.process(i)).state());
  }
  return run;
}

bool independent(const Topology& topo,
                 const std::vector<MisProcess::State>& states) {
  for (std::size_t a = 0; a < topo.size(); ++a) {
    if (states[a] != MisProcess::State::kHead) continue;
    for (std::uint32_t b : topo.neighbors(a)) {
      if (states[b] == MisProcess::State::kHead) return false;
    }
  }
  return true;
}

bool dominating(const Topology& topo,
                const std::vector<MisProcess::State>& states) {
  for (std::size_t a = 0; a < topo.size(); ++a) {
    if (states[a] == MisProcess::State::kHead) continue;
    bool covered = false;
    for (std::uint32_t b : topo.neighbors(a)) {
      if (states[b] == MisProcess::State::kHead) covered = true;
    }
    if (!covered) return false;
  }
  return true;
}

struct MisParams {
  int topo_kind;
  std::uint64_t seed;
};

Topology make_topo(int kind) {
  switch (kind) {
    case 0:
      return Topology::line(12);
    case 1:
      return Topology::grid(5, 5);
    case 2:
      return Topology::clique(10);
    default:
      return Topology::random_geometric(30, 0.35, 11);
  }
}

class MisSweep : public ::testing::TestWithParam<MisParams> {};

TEST_P(MisSweep, CompleteDetectorGivesMaximalIndependentSet) {
  const MisParams p = GetParam();
  const Topology topo = make_topo(p.topo_kind);
  const MisRun run = run_mis(topo, DetectorSpec::AC(),
                             make_truthful_policy(), {0.9, 0.3}, p.seed);
  ASSERT_TRUE(run.all_settled)
      << "topo=" << p.topo_kind << " seed=" << p.seed;
  EXPECT_TRUE(independent(topo, run.states));
  EXPECT_TRUE(dominating(topo, run.states));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MisSweep,
    ::testing::Values(MisParams{0, 1}, MisParams{0, 2}, MisParams{1, 1},
                      MisParams{1, 2}, MisParams{2, 1}, MisParams{2, 2},
                      MisParams{3, 1}, MisParams{3, 2}, MisParams{0, 3},
                      MisParams{1, 3}, MisParams{2, 3}, MisParams{3, 3}));

TEST(Mis, CliqueElectsExactlyOneHead) {
  const Topology topo = Topology::clique(10);
  const MisRun run = run_mis(topo, DetectorSpec::AC(),
                             make_truthful_policy(), {0.9, 0.3}, 5);
  ASSERT_TRUE(run.all_settled);
  int heads = 0;
  for (auto s : run.states) heads += s == MisProcess::State::kHead ? 1 : 0;
  EXPECT_EQ(heads, 1);
}

TEST(Mis, LineHeadsRoughlyEveryOtherNode) {
  const Topology topo = Topology::line(20);
  const MisRun run = run_mis(topo, DetectorSpec::AC(),
                             make_truthful_policy(), {0.9, 0.3}, 6);
  ASSERT_TRUE(run.all_settled);
  int heads = 0;
  for (auto s : run.states) heads += s == MisProcess::State::kHead ? 1 : 0;
  // An MIS on a 20-path has between ceil(20/3) = 7 and 10 nodes.
  EXPECT_GE(heads, 7);
  EXPECT_LE(heads, 10);
}

TEST(Mis, IsolatedNodesAlwaysBecomeHeads) {
  const Topology topo = Topology::random_geometric(8, 1e-6, 2);  // isolated
  const MisRun run = run_mis(topo, DetectorSpec::AC(),
                             make_truthful_policy(), {0.9, 0.3}, 7);
  ASSERT_TRUE(run.all_settled);
  for (auto s : run.states) EXPECT_EQ(s, MisProcess::State::kHead);
}

TEST(Mis, DominatedNodeIsDormantAndInert) {
  // Round 2 is an announce round: a head mark dominates an undecided node.
  MisProcess p(MisProcess::Options{});
  EXPECT_FALSE(p.dormant());
  const Message head{Message::Kind::kLeaderValue, 0, 2};
  const Message candidacy{Message::Kind::kVote, 0, 1};
  p.on_receive(2, std::span<const Message>(&head, 1), CdAdvice::kNull,
               CmAdvice::kActive);
  ASSERT_EQ(p.state(), MisProcess::State::kDominated);
  EXPECT_TRUE(p.dormant());
  // From then on neither call returns or changes anything, over both
  // round parities and every advice -- marks received included.
  const std::vector<std::vector<Message>> multisets = {
      {}, {candidacy}, {head}, {candidacy, head}};
  for (Round r = 3; r <= 10; ++r) {
    for (CmAdvice cm : {CmAdvice::kActive, CmAdvice::kPassive}) {
      EXPECT_FALSE(p.on_send(r, cm).has_value()) << "round " << r;
      for (CdAdvice cd : {CdAdvice::kNull, CdAdvice::kCollision}) {
        for (const std::vector<Message>& in : multisets) {
          p.on_receive(r, in, cd, cm);
          EXPECT_EQ(p.state(), MisProcess::State::kDominated);
          EXPECT_TRUE(p.dormant());
          EXPECT_FALSE(p.decided());
          EXPECT_FALSE(p.halted());
        }
      }
    }
  }
}

TEST(Mis, HeadsAndUndecidedNodesStayAwake) {
  // A lone candidate that hears silence becomes head: not dormant (it
  // marks its neighbourhood every announce round).
  MisProcess::Options o;
  o.p_candidate = 1.0;
  MisProcess p(o);
  ASSERT_TRUE(p.on_send(1, CmAdvice::kActive).has_value());
  EXPECT_FALSE(p.dormant());
  const Message own{Message::Kind::kVote, 0, 1};
  p.on_receive(1, std::span<const Message>(&own, 1), CdAdvice::kNull,
               CmAdvice::kActive);
  ASSERT_EQ(p.state(), MisProcess::State::kHead);
  EXPECT_FALSE(p.dormant());
  EXPECT_TRUE(p.on_send(2, CmAdvice::kActive).has_value());
}

TEST(Mis, ZeroCompletenessAlonePermitsAdjacentHeads) {
  // The ablation: hand the protocol a detector that may legally stay
  // silent when only SOME messages are lost (zero-complete, prefer-null)
  // and make simultaneous candidates never capture each other's marks.
  // Adjacent candidates then both see clean silence and both elect --
  // independence collapses.  Completeness, not carrier sensing, is what
  // the safety of the silence test rests on (the paper's theme, one hop
  // out).
  bool violated = false;
  for (std::uint64_t seed = 1; seed <= 30 && !violated; ++seed) {
    const Topology topo = Topology::clique(6);
    const MisRun run =
        run_mis(topo, DetectorSpec::ZeroAC(), make_prefer_null_policy(),
                {0.9, 0.0}, seed, 600);
    if (!independent(topo, run.states)) violated = true;
  }
  EXPECT_TRUE(violated)
      << "expected some seed to elect adjacent heads under 0-AC";
}

}  // namespace
}  // namespace ccd
