// Round engine semantics, on a one-lane LaneEngine: the configuration axes
// (channel, scope) and their interaction with topology and crash points,
// round recording, and the n = 0 world.  The byte-level equivalence with
// the pre-refactor executors is pinned by exp/golden_report_test; the
// single-hop adapter by the executor test (sim::Executor) and the multihop
// configuration by multihop/capture_channel_test.
#include "engine/lane_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cm/no_cm.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "net/no_loss.hpp"

namespace ccd {
namespace {

/// Broadcasts every round (or never); records its observations.
class BeaconProcess final : public Process {
 public:
  explicit BeaconProcess(bool talk) : talk_(talk) {}
  std::optional<Message> on_send(Round, CmAdvice) override {
    if (talk_) return Message{Message::Kind::kPayload, 7, 0};
    return std::nullopt;
  }
  void on_receive(Round, std::span<const Message> received, CdAdvice,
                  CmAdvice) override {
    last_count_ = received.size();
    ++transitions_;
  }
  std::size_t last_count_ = 0;
  std::uint32_t transitions_ = 0;

 private:
  bool talk_;
};

EngineWorld beacon_world(Topology topo, std::vector<bool> talk,
                         ChannelModel channel, CollisionScope scope,
                         std::unique_ptr<FailureAdversary> fault = nullptr) {
  EngineWorld ew;
  for (bool b : talk) {
    ew.world.processes.push_back(std::make_unique<BeaconProcess>(b));
  }
  // Pin the detector: the engine's null-substitution default is NoCD (the
  // constant "+-" detector), which would drown the advice assertions.
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.world.fault = std::move(fault);
  ew.topology = std::make_shared<const Topology>(std::move(topo));
  ew.channel = channel;
  ew.scope = scope;
  ew.link = {1.0, 1.0};
  return ew;
}

EngineOptions quiet_options() {
  EngineOptions options;
  options.stop_when_all_decided = false;
  return options;
}

TEST(Engine, MatrixChannelMasksDeliveryByAdjacency) {
  // Line 0-1-2, perfect matrix channel (NoLoss fills the whole matrix):
  // node 0 broadcasts; node 1 is adjacent and receives, node 2 is NOT
  // adjacent -- the adjacency mask must drop the matrix entry, and its
  // local c must be 0 (accuracy: no collision to report two hops away).
  auto ew = beacon_world(Topology::line(3), {true, false, false},
                         ChannelModel::kMatrix, CollisionScope::kLocal);
  LaneEngine engine(std::move(ew), quiet_options());
  engine.step();
  EXPECT_EQ(engine.last_receive_count(0, 0), 1u);  // self-delivery
  EXPECT_EQ(engine.last_local_broadcasters(0, 0), 1u);
  EXPECT_EQ(engine.last_receive_count(0, 1), 1u);
  EXPECT_EQ(engine.last_local_broadcasters(0, 1), 1u);
  EXPECT_EQ(engine.last_receive_count(0, 2), 0u);
  EXPECT_EQ(engine.last_local_broadcasters(0, 2), 0u);
  EXPECT_EQ(engine.last_cd(0, 2), CdAdvice::kNull);
}

TEST(Engine, GlobalAndLocalScopeAgreeOnACliqueDeterministically) {
  // On a clique, per-neighborhood counts degenerate to the global count,
  // so with RNG-free components (truthful detector, NoLoss, NoCm) the two
  // scopes must produce the SAME consensus execution.
  auto build = [](CollisionScope scope) {
    Alg2Algorithm alg(16);
    EngineWorld ew;
    ew.world = make_world(alg, {3, 9, 9, 3, 7, 1},
                          std::make_unique<NoCm>(),
                          std::make_unique<OracleDetector>(
                              DetectorSpec::ZeroAC(), make_truthful_policy()),
                          std::make_unique<NoLoss>(),
                          std::make_unique<NoFailures>());
    ew.topology = std::make_shared<const Topology>(Topology::clique(6));
    ew.channel = ChannelModel::kMatrix;
    ew.scope = scope;
    return LaneEngine(std::move(ew), EngineOptions{});
  };
  LaneEngine global = build(CollisionScope::kGlobal);
  LaneEngine local = build(CollisionScope::kLocal);
  global.run(500);
  local.run(500);
  const RunResult& rg = global.result(0);
  const RunResult& rl = local.result(0);
  EXPECT_TRUE(rg.all_correct_decided);
  EXPECT_EQ(rg.all_correct_decided, rl.all_correct_decided);
  EXPECT_EQ(rg.rounds_executed, rl.rounds_executed);
  EXPECT_EQ(rg.last_decision_round, rl.last_decision_round);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(global.decision(0, i), local.decision(0, i)) << i;
  }
}

TEST(Engine, AfterSendCrashVisibilityFollowsScope) {
  // Process 0 broadcasts and crashes after its round-1 send.  Both scopes
  // deliver the message and skip the crasher's transition; they differ in
  // whether the corpse's own view still forms (kGlobal: Definition 11's
  // literal reading) or it leaves the channel immediately (kLocal).
  auto crash0 = [] {
    return std::make_unique<ScheduledCrash>(
        std::vector<CrashEvent>{{1, 0, CrashPoint::kAfterSend}});
  };
  for (CollisionScope scope :
       {CollisionScope::kGlobal, CollisionScope::kLocal}) {
    auto ew = beacon_world(Topology::clique(2), {true, false},
                           ChannelModel::kMatrix, scope, crash0());
    LaneEngine engine(std::move(ew), quiet_options());
    auto& crasher = static_cast<BeaconProcess&>(engine.process(0, 0));
    auto& survivor = static_cast<BeaconProcess&>(engine.process(0, 1));
    engine.step();
    EXPECT_FALSE(engine.alive(0, 0));
    EXPECT_EQ(engine.num_alive(0), 1u);
    EXPECT_EQ(engine.crashes_applied(0), 1u);
    // The round-1 message went out either way (Definition 11: the message
    // derives from the pre-crash state)...
    EXPECT_EQ(survivor.last_count_, 1u);
    EXPECT_EQ(survivor.transitions_, 1u);
    // ...and the crasher never takes its round-1 transition.
    EXPECT_EQ(crasher.transitions_, 0u);
    // Scope-dependent: does the crasher's round-1 view still form?
    if (scope == CollisionScope::kGlobal) {
      EXPECT_EQ(engine.last_receive_count(0, 0), 1u);  // self-delivery
    } else {
      EXPECT_EQ(engine.last_receive_count(0, 0), 0u);  // out of the channel
    }
  }
}

TEST(Engine, CaptureChannelCountsBroadcastsAndKeepsTopology) {
  auto ew = beacon_world(Topology::ring(5), {true, true, false, false, false},
                         ChannelModel::kCapture, CollisionScope::kLocal);
  ew.link_seed = 42;
  LaneEngine engine(std::move(ew), quiet_options());
  for (int r = 0; r < 3; ++r) engine.step();
  EXPECT_EQ(engine.total_broadcasts(0), 6u);  // 2 talkers x 3 rounds
  EXPECT_EQ(engine.topology(0).size(), 5u);
  EXPECT_EQ(engine.current_round(), 3u);
  EXPECT_FALSE(engine.all_correct_decided(0));  // beacons never decide
}

TEST(Engine, RecordsRoundsOnlyWhenAsked) {
  auto make = [](bool record_rounds) {
    auto ew = beacon_world(Topology::clique(3), {true, false, false},
                           ChannelModel::kMatrix, CollisionScope::kGlobal);
    EngineOptions options;
    options.record_views = record_rounds;
    options.record_rounds = record_rounds;
    options.stop_when_all_decided = false;
    return LaneEngine(std::move(ew), options);
  };
  LaneEngine quiet = make(false);
  LaneEngine logged = make(true);
  for (int r = 0; r < 4; ++r) {
    quiet.step();
    logged.step();
  }
  EXPECT_EQ(quiet.log(0).num_rounds(), 0u);
  EXPECT_FALSE(quiet.log(0).views_recorded());
  EXPECT_EQ(logged.log(0).num_rounds(), 4u);
  EXPECT_EQ(logged.log(0).transmission().at(2).broadcaster_count, 1u);
  ASSERT_TRUE(logged.log(0).views_recorded());
  // Views: the talker's send, and everyone's copy of it.
  const RoundView& talker = logged.log(0).view(0).rounds.at(1);
  ASSERT_TRUE(talker.sent.has_value());
  EXPECT_EQ(talker.sent->value, 7u);
  EXPECT_EQ(logged.log(0).view(2).rounds.at(1).received.size(), 1u);
  EXPECT_FALSE(logged.log(0).view(2).rounds.at(1).sent.has_value());
}

TEST(Engine, EmptyWorldIsDoneBeforeItsFirstRound) {
  // n = 0: nothing can send, decide or crash; every process is vacuously
  // decided, so run() returns at once -- also without stop_when_all_decided
  // and on a multi-lane engine.
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    std::vector<EngineWorld> worlds(lanes);
    LaneEngine engine(std::move(worlds), quiet_options());
    EXPECT_EQ(engine.size(), 0u);
    EXPECT_EQ(engine.active_mask(), 0u);
    engine.run(100);
    EXPECT_EQ(engine.current_round(), 0u);
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_TRUE(engine.result(l).all_correct_decided);
      EXPECT_EQ(engine.result(l).rounds_executed, 0u);
      EXPECT_EQ(engine.result(l).num_crashed, 0u);
      EXPECT_TRUE(engine.all_correct_decided(l));
      EXPECT_EQ(engine.counters(l), obs::EngineCounters{});
    }
  }
}

TEST(Engine, LocalScopeCrashedProcessReadsNullAdvice) {
  // Clique of 3, processes 0 and 1 talk, capture never resolves
  // contention: process 2 hears two broadcasters and receives nothing, so
  // the zero-complete detector must report a collision.  Once process 2
  // crashes, its advice reads kNull -- a dead radio observes nothing.
  auto crash2 = std::make_unique<ScheduledCrash>(
      std::vector<CrashEvent>{{2, 2, CrashPoint::kBeforeSend}});
  auto ew = beacon_world(Topology::clique(3), {true, true, false},
                         ChannelModel::kCapture, CollisionScope::kLocal,
                         std::move(crash2));
  ew.link = {1.0, 0.0};
  LaneEngine engine(std::move(ew), quiet_options());
  engine.step();
  EXPECT_EQ(engine.last_local_broadcasters(0, 2), 2u);
  EXPECT_EQ(engine.last_receive_count(0, 2), 0u);
  EXPECT_EQ(engine.last_cd(0, 2), CdAdvice::kCollision);
  engine.step();
  EXPECT_FALSE(engine.alive(0, 2));
  EXPECT_EQ(engine.last_cd(0, 2), CdAdvice::kNull);
  engine.step();
  EXPECT_EQ(engine.last_cd(0, 2), CdAdvice::kNull);
}

/// A process that honours the dormant contract and logs the rounds the
/// engine calls it in.  Awake, it talks every `period` rounds (0: never);
/// a dormant one optionally wakes on its first non-empty multiset and
/// then talks every round.
class SleeperProcess final : public Process {
 public:
  SleeperProcess(bool dormant, bool wakes, Round period)
      : wakes_(wakes), period_(period) {
    set_dormant(dormant);
  }
  std::optional<Message> on_send(Round r, CmAdvice) override {
    sends.push_back(r);
    if (period_ != 0 && (r - 1) % period_ == 0) {
      return Message{Message::Kind::kPayload, 1, 0};
    }
    return std::nullopt;
  }
  void on_receive(Round r, std::span<const Message> received, CdAdvice,
                  CmAdvice) override {
    receives.push_back(r);
    if (dormant() && wakes_ && !received.empty()) {
      set_dormant(false);
      period_ = 1;
    }
  }
  std::vector<Round> sends;
  std::vector<Round> receives;

 private:
  bool wakes_;
  Round period_;
};

std::vector<Round> rounds(Round from, Round to, Round stride = 1) {
  std::vector<Round> out;
  for (Round r = from; r <= to; r += stride) out.push_back(r);
  return out;
}

EngineWorld sleeper_world(Topology topo, ChannelModel channel,
                          CollisionScope scope, bool wakes, Round period) {
  EngineWorld ew = beacon_world(std::move(topo), {}, channel, scope);
  ew.world.processes.push_back(
      std::make_unique<SleeperProcess>(false, false, period));
  for (std::size_t i = 1; i < ew.topology->size(); ++i) {
    ew.world.processes.push_back(
        std::make_unique<SleeperProcess>(true, wakes, 0));
  }
  return ew;
}

const SleeperProcess& sleeper(LaneEngine& engine, std::size_t i) {
  return static_cast<const SleeperProcess&>(engine.process(0, i));
}

TEST(Engine, LocalScopeStepsDormantProcessesOnlyInRangeOfASender) {
  // Line 0-1-2-3, process 0 talks in odd rounds, 1..3 stay dormant.  No
  // dormant process is ever asked to send; process 1 (0's neighbour) is
  // stepped in exactly the rounds 0 talks, 2 and 3 never.  The awake
  // process is stepped every round.
  for (ChannelModel channel : {ChannelModel::kCapture, ChannelModel::kMatrix}) {
    LaneEngine engine(sleeper_world(Topology::line(4), channel,
                                    CollisionScope::kLocal, false, 2),
                      quiet_options());
    for (int r = 0; r < 6; ++r) engine.step();
    EXPECT_EQ(sleeper(engine, 0).sends, rounds(1, 6));
    EXPECT_EQ(sleeper(engine, 0).receives, rounds(1, 6));
    EXPECT_EQ(sleeper(engine, 1).receives, rounds(1, 5, 2));
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_TRUE(sleeper(engine, i).sends.empty()) << i;
    }
    EXPECT_TRUE(sleeper(engine, 2).receives.empty());
    EXPECT_TRUE(sleeper(engine, 3).receives.empty());
    EXPECT_EQ(engine.num_awake(0), 1u);
    EXPECT_EQ(engine.total_broadcasts(0), 3u);
  }
}

TEST(Engine, GlobalScopeStepsEveryDormantParticipant) {
  // kGlobal delivers to every participant, so dormant processes take
  // every transition -- but still are never asked to send.
  LaneEngine engine(sleeper_world(Topology::clique(4), ChannelModel::kMatrix,
                                  CollisionScope::kGlobal, false, 2),
                    quiet_options());
  for (int r = 0; r < 6; ++r) engine.step();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sleeper(engine, i).receives, rounds(1, 6)) << i;
  }
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(sleeper(engine, i).sends.empty()) << i;
  }
  EXPECT_EQ(engine.num_awake(0), 1u);
}

TEST(Engine, DormantProcessWakesInTheRoundItReceives) {
  // A relay down line 0-1-2-3 on reliable links: process k is first in
  // range of a sender (k - 1, awake since round k - 1) in round k, wakes
  // there, and is asked to send from round k + 1 on.
  LaneEngine engine(sleeper_world(Topology::line(4), ChannelModel::kCapture,
                                  CollisionScope::kLocal, true, 1),
                    quiet_options());
  for (Round r = 1; r <= 6; ++r) {
    engine.step();
    EXPECT_EQ(engine.num_awake(0), std::min<std::size_t>(r + 1, 4)) << r;
  }
  for (Round k = 1; k < 4; ++k) {
    EXPECT_EQ(sleeper(engine, k).receives, rounds(k, 6)) << k;
    EXPECT_EQ(sleeper(engine, k).sends, rounds(k + 1, 6)) << k;
  }
}

}  // namespace
}  // namespace ccd
