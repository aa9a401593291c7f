// The multihop configuration of the round engine -- a one-lane LaneEngine
// on the capture-effect channel (ChannelModel::kCapture) with
// per-neighbourhood collision detection (CollisionScope::kLocal): local
// broadcaster counts, capture, zero completeness, the clique degenerating
// to single-hop semantics, crash points, and flooding on top of it.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "multihop/flood.hpp"
#include "net/probabilistic_loss.hpp"

namespace ccd {
namespace {

/// Broadcasts every round; records its observations.
class BeaconProcess final : public Process {
 public:
  explicit BeaconProcess(bool talk) : talk_(talk) {}
  std::optional<Message> on_send(Round, CmAdvice) override {
    if (talk_) return Message{Message::Kind::kPayload, 7, 0};
    return std::nullopt;
  }
  void on_receive(Round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice) override {
    last_count_ = received.size();
    last_cd_ = cd;
  }
  std::size_t last_count_ = 0;
  CdAdvice last_cd_ = CdAdvice::kNull;

 private:
  bool talk_;
};

/// One lane on the multihop channel: capture-effect physics, local
/// detector counts.  `fault` may be null (no crashes).
LaneEngine make_capture_engine(Topology topo,
                               std::vector<std::unique_ptr<Process>> procs,
                               MhLinkModel link, std::uint64_t seed,
                               std::unique_ptr<FailureAdversary> fault =
                                   nullptr) {
  EngineWorld ew;
  ew.world.processes = std::move(procs);
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.world.fault = std::move(fault);
  ew.topology = std::make_shared<const Topology>(std::move(topo));
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = link;
  ew.link_seed = seed;
  EngineOptions options;
  options.stop_when_all_decided = false;
  return LaneEngine(std::move(ew), options);
}

LaneEngine make_beacon_engine(Topology topo, std::vector<bool> talk,
                              MhLinkModel link) {
  std::vector<std::unique_ptr<Process>> procs;
  for (bool b : talk) procs.push_back(std::make_unique<BeaconProcess>(b));
  return make_capture_engine(std::move(topo), std::move(procs), link, 5);
}

TEST(CaptureChannel, LoneNeighborDeliveredOnReliableLinks) {
  // Line 0-1-2: only node 0 talks.  Node 1 hears it; node 2 (not
  // adjacent) hears nothing and must not get a collision report
  // (accuracy: c_2 = 0).
  auto ex = make_beacon_engine(Topology::line(3), {true, false, false},
                               {1.0, 1.0});
  ex.step();
  EXPECT_EQ(ex.last_local_broadcasters(0, 1), 1u);
  EXPECT_EQ(ex.last_receive_count(0, 1), 1u);
  EXPECT_EQ(ex.last_cd(0, 1), CdAdvice::kNull);
  EXPECT_EQ(ex.last_local_broadcasters(0, 2), 0u);
  EXPECT_EQ(ex.last_receive_count(0, 2), 0u);
  EXPECT_EQ(ex.last_cd(0, 2), CdAdvice::kNull);
}

TEST(CaptureChannel, ContentionCapturesAtMostOne) {
  // Star-ish: nodes 0 and 2 both adjacent to 1, both talk; p_capture = 1:
  // node 1 receives exactly one of the two.
  auto ex = make_beacon_engine(Topology::line(3), {true, false, true},
                               {1.0, 1.0});
  for (int i = 0; i < 20; ++i) {
    ex.step();
    EXPECT_EQ(ex.last_local_broadcasters(0, 1), 2u);
    EXPECT_EQ(ex.last_receive_count(0, 1), 1u);
    // Lost one of two: zero completeness forces nothing, truthful policy
    // reports the loss.
    EXPECT_EQ(ex.last_cd(0, 1), CdAdvice::kCollision);
  }
}

TEST(CaptureChannel, ZeroCompletenessForcedOnTotalLocalLoss) {
  // Both neighbors of node 1 talk, p_capture = 0: node 1 hears nothing
  // but MUST be told +- (local c = 2, t = 0).
  auto ex = make_beacon_engine(Topology::line(3), {true, false, true},
                               {1.0, 0.0});
  ex.step();
  EXPECT_EQ(ex.last_receive_count(0, 1), 0u);
  EXPECT_EQ(ex.last_cd(0, 1), CdAdvice::kCollision);
}

TEST(CaptureChannel, SelfDeliveryForBroadcasters) {
  auto ex = make_beacon_engine(Topology::line(2), {true, true}, {1.0, 0.0});
  ex.step();
  // Each broadcaster hears at least itself.
  EXPECT_GE(ex.last_receive_count(0, 0), 1u);
  EXPECT_GE(ex.last_receive_count(0, 1), 1u);
  // Own broadcast counts toward the local c.
  EXPECT_EQ(ex.last_local_broadcasters(0, 0), 2u);
}

TEST(CaptureChannel, CliqueMatchesSingleHopSemantics) {
  // On a clique, local counts equal global counts: one talker, everyone
  // hears it, nobody gets a report -- the single-hop model's behaviour.
  auto ex = make_beacon_engine(Topology::clique(5),
                               {true, false, false, false, false},
                               {1.0, 1.0});
  ex.step();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ex.last_local_broadcasters(0, i), 1u);
    EXPECT_EQ(ex.last_receive_count(0, i), 1u);
    EXPECT_EQ(ex.last_cd(0, i), CdAdvice::kNull);
  }
}

TEST(CaptureChannel, InterferenceWithoutReceptionIsDetected) {
  // The paper's multihop motivation for eventual (not immediate) collision
  // freedom: node 1 sits between two talkers it cannot decode (p_capture
  // 0) -- pure interference, reliably flagged by zero completeness.
  auto ex = make_beacon_engine(Topology::grid(3, 1), {true, false, true},
                               {1.0, 0.0});
  for (int i = 0; i < 5; ++i) ex.step();
  EXPECT_EQ(ex.last_cd(0, 1), CdAdvice::kCollision);
  EXPECT_EQ(ex.last_receive_count(0, 1), 0u);
}

// ---- silent rounds ------------------------------------------------------

/// Talks in round 1 only (when `talker`); keeps every multiset it receives.
class RecorderProcess final : public Process {
 public:
  explicit RecorderProcess(bool talker) : talker_(talker) {}
  std::optional<Message> on_send(Round r, CmAdvice) override {
    if (talker_ && r == 1) return Message{Message::Kind::kPayload, 7, 0};
    return std::nullopt;
  }
  void on_receive(Round, std::span<const Message> received, CdAdvice,
                  CmAdvice) override {
    received_.emplace_back(received.begin(), received.end());
  }
  std::vector<std::vector<Message>> received_;  ///< index 0 is round 1

 private:
  bool talker_;
};

/// Line 0-1-2 where node 0 talks in round 1 and nobody talks in round 2:
/// node 1 hears node 0, then no one.  Round 2's delivery need not visit
/// node 1 at all, and whatever it skips must read as the EMPTY multiset --
/// never node 1's round-1 message.
void expect_silent_round_is_empty(ChannelModel channel,
                                  std::unique_ptr<LossAdversary> loss) {
  EngineWorld ew;
  for (std::size_t i = 0; i < 3; ++i) {
    ew.world.processes.push_back(std::make_unique<RecorderProcess>(i == 0));
  }
  ew.world.loss = std::move(loss);
  ew.topology = std::make_shared<const Topology>(Topology::line(3));
  ew.channel = channel;
  ew.scope = CollisionScope::kLocal;
  ew.link = {1.0, 1.0};
  ew.link_seed = 5;
  EngineOptions options;
  options.record_rounds = true;
  options.record_views = true;
  options.stop_when_all_decided = false;
  LaneEngine ex(std::move(ew), options);
  const auto& p1 = static_cast<RecorderProcess&>(ex.process(0, 1));

  ex.step();  // round 1: node 1 hears node 0
  ASSERT_EQ(ex.last_receive_count(0, 1), 1u);
  ASSERT_EQ(p1.received_.size(), 1u);
  EXPECT_EQ(p1.received_[0].size(), 1u);

  ex.step();  // round 2: silence
  ASSERT_EQ(p1.received_.size(), 2u);
  EXPECT_TRUE(p1.received_[1].empty());
  EXPECT_EQ(ex.last_receive_count(0, 1), 0u);
  const ProcessView& view = ex.log(0).view(1);
  ASSERT_EQ(view.rounds.size(), 2u);
  EXPECT_EQ(view.rounds[0].received.size(), 1u);
  EXPECT_TRUE(view.rounds[1].received.empty());
}

TEST(SilentRound, CaptureReceiverReadsAnEmptyMultiset) {
  expect_silent_round_is_empty(ChannelModel::kCapture, nullptr);
}

TEST(SilentRound, LossyMatrixLocalReceiverReadsAnEmptyMultiset) {
  // p_deliver = 1 delivers every link, but through the adversary's matrix
  // (ProbabilisticLoss never claims always_delivers).
  ProbabilisticLoss::Options lossy;
  lossy.p_deliver = 1.0;
  expect_silent_round_is_empty(ChannelModel::kMatrix,
                               std::make_unique<ProbabilisticLoss>(lossy));
}

// ---- crash failures -----------------------------------------------------

LaneEngine make_crashing_engine(Topology topo, std::vector<bool> talk,
                                std::vector<CrashEvent> events,
                                MhLinkModel link = {1.0, 1.0}) {
  std::vector<std::unique_ptr<Process>> procs;
  for (bool b : talk) procs.push_back(std::make_unique<BeaconProcess>(b));
  return make_capture_engine(
      std::move(topo), std::move(procs), link, 5,
      std::make_unique<ScheduledCrash>(std::move(events)));
}

TEST(CaptureChannelCrash, BeforeSendCrashFiresAtTheExactRound) {
  // Line 0-1-2, everyone talks.  Node 2 crashes before its round-3 send:
  // through round 2 node 1 sees c = 3 (both neighbors + itself); from
  // round 3 on, c = 2 and node 2 is dead.
  auto ex = make_crashing_engine(
      Topology::line(3), {true, true, true},
      {{/*round=*/3, /*process=*/2, CrashPoint::kBeforeSend}});
  for (Round r = 1; r <= 2; ++r) {
    ex.step();
    EXPECT_EQ(ex.last_local_broadcasters(0, 1), 3u) << "round " << r;
    EXPECT_TRUE(ex.alive(0, 2));
    EXPECT_EQ(ex.crashes_applied(0), 0u);
  }
  ex.step();  // round 3: the crash lands before the send
  EXPECT_EQ(ex.last_local_broadcasters(0, 1), 2u);
  EXPECT_FALSE(ex.alive(0, 2));
  EXPECT_EQ(ex.num_alive(0), 2u);
  EXPECT_EQ(ex.crashes_applied(0), 1u);
  // Dead processes receive nothing and get no further advice.
  EXPECT_EQ(ex.last_receive_count(0, 2), 0u);
  EXPECT_EQ(ex.last_local_broadcasters(0, 2), 0u);
  EXPECT_EQ(ex.last_cd(0, 2), CdAdvice::kNull);
}

TEST(CaptureChannelCrash, AfterSendCrashDeliversTheFinalMessage) {
  // Definition 11's literal semantics: node 0 crashes after its round-2
  // send.  Its round-2 message still goes out (node 1 counts it in c),
  // but node 0 takes no round-2 transition and is silent from round 3.
  auto ex = make_crashing_engine(
      Topology::line(3), {true, true, true},
      {{/*round=*/2, /*process=*/0, CrashPoint::kAfterSend}});
  ex.step();  // round 1
  auto& p0 = static_cast<BeaconProcess&>(ex.process(0, 0));
  const std::size_t count_after_round1 = p0.last_count_;
  EXPECT_GE(count_after_round1, 1u);  // own broadcast self-delivers

  ex.step();  // round 2: message out, then death
  EXPECT_FALSE(ex.alive(0, 0));
  EXPECT_EQ(ex.crashes_applied(0), 1u);
  // The dying broadcast still counted toward node 1's local c...
  EXPECT_EQ(ex.last_local_broadcasters(0, 1), 3u);
  // ...but node 0 skipped its round-2 transition: its last observation is
  // still the round-1 one.
  EXPECT_EQ(p0.last_count_, count_after_round1);

  ex.step();  // round 3: dead nodes drop out of c entirely
  EXPECT_EQ(ex.last_local_broadcasters(0, 1), 2u);
}

TEST(CaptureChannelCrash, DeadNeighborsLeaveTheBroadcasterCount) {
  // Both neighbors of node 1 die in round 1; from round 2 node 1 is a
  // lone broadcaster with c = 1 and null advice (accuracy must hold: no
  // phantom collisions from the dead).
  auto ex = make_crashing_engine(
      Topology::line(3), {true, true, true},
      {{1, 0, CrashPoint::kBeforeSend}, {1, 2, CrashPoint::kBeforeSend}});
  ex.step();
  EXPECT_EQ(ex.num_alive(0), 1u);
  EXPECT_EQ(ex.crashes_applied(0), 2u);
  ex.step();
  EXPECT_EQ(ex.last_local_broadcasters(0, 1), 1u);
  EXPECT_EQ(ex.last_receive_count(0, 1), 1u);  // self-delivery only
  EXPECT_EQ(ex.last_cd(0, 1), CdAdvice::kNull);
}

TEST(CaptureChannelCrash, EventsForDeadOrOutOfRangeProcessesAreIgnored) {
  auto ex = make_crashing_engine(
      Topology::line(2), {true, true},
      {{1, 0, CrashPoint::kBeforeSend},
       {2, 0, CrashPoint::kAfterSend},    // already dead: must not recount
       {1, 9, CrashPoint::kBeforeSend}});  // out of range: ignored
  ex.step();
  ex.step();
  EXPECT_EQ(ex.crashes_applied(0), 1u);
  EXPECT_EQ(ex.num_alive(0), 1u);
  EXPECT_FALSE(ex.alive(0, 0));
  EXPECT_TRUE(ex.alive(0, 1));
}

TEST(CaptureChannelCrash, NoAdversaryMatchesNoFailuresByteForByte) {
  // A null fault and an empty ScheduledCrash must produce identical
  // executions (same RNG draw sequence, same observations).
  auto a = make_beacon_engine(Topology::line(3), {true, false, true},
                              {0.9, 0.4});
  auto b = make_crashing_engine(Topology::line(3), {true, false, true}, {},
                                {0.9, 0.4});
  for (int i = 0; i < 50; ++i) {
    a.step();
    b.step();
    for (std::size_t p = 0; p < 3; ++p) {
      ASSERT_EQ(a.last_receive_count(0, p), b.last_receive_count(0, p));
      ASSERT_EQ(a.last_cd(0, p), b.last_cd(0, p));
    }
  }
}

// ---- flooding -----------------------------------------------------------

struct FloodRun {
  bool completed = false;
  Round completion_round = 0;
};

FloodRun run_flood(const Topology& topo, FloodPolicy policy, Round max_rounds,
                   std::uint64_t seed) {
  std::vector<std::unique_ptr<Process>> procs;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    FloodProcess::Options o;
    o.is_source = i == 0;
    o.policy = policy;
    o.fresh_rounds = max_rounds;
    o.seed = seed * 1000 + i;
    procs.push_back(std::make_unique<FloodProcess>(o));
  }
  LaneEngine ex =
      make_capture_engine(topo, std::move(procs), {0.9, 0.5}, seed);
  for (Round r = 1; r <= max_rounds; ++r) {
    ex.step();
    bool all = true;
    for (std::size_t i = 0; i < ex.size(); ++i) {
      if (!static_cast<FloodProcess&>(ex.process(0, i)).has_message()) {
        all = false;
      }
    }
    if (all) return {true, r};
  }
  return {false, max_rounds};
}

TEST(Flood, CoversConnectedTopologies) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_TRUE(run_flood(Topology::line(12), FloodPolicy::kFixed, 3000,
                          seed)
                    .completed);
    EXPECT_TRUE(run_flood(Topology::grid(5, 4), FloodPolicy::kCdBackoff,
                          3000, seed)
                    .completed);
    EXPECT_TRUE(run_flood(Topology::clique(10), FloodPolicy::kCdBackoff,
                          3000, seed)
                    .completed);
  }
}

TEST(Flood, NeverCrossesDisconnection) {
  const Topology t = Topology::random_geometric(12, 1e-6, 4);  // isolated
  const FloodRun run = run_flood(t, FloodPolicy::kFixed, 500, 1);
  EXPECT_FALSE(run.completed);
}

TEST(Flood, CompletionGrowsWithDiameter) {
  // Longer lines take longer -- the D factor of the broadcast bounds in
  // Section 1.1 (in expectation; use the median over seeds).
  auto median_completion = [](std::size_t len) {
    std::vector<Round> rounds;
    for (std::uint64_t seed = 1; seed <= 9; ++seed) {
      const FloodRun run =
          run_flood(Topology::line(len), FloodPolicy::kCdBackoff, 5000, seed);
      EXPECT_TRUE(run.completed);
      rounds.push_back(run.completion_round);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[rounds.size() / 2];
  };
  EXPECT_LT(median_completion(4), median_completion(24));
}

TEST(Flood, DormantExactlyWhileItLacksTheMessage) {
  // Direct calls: a listener is dormant and its silent rounds change
  // nothing whatever the advice -- a non-payload message included; the
  // payload wakes it in the round it arrives.
  FloodProcess::Options o;
  FloodProcess listener(o);
  o.is_source = true;
  EXPECT_FALSE(FloodProcess(o).dormant());
  const Message vote{Message::Kind::kVote, 1, 0};
  for (Round r = 1; r <= 4; ++r) {
    for (CmAdvice cm : {CmAdvice::kActive, CmAdvice::kPassive}) {
      EXPECT_FALSE(listener.on_send(r, cm).has_value());
      for (CdAdvice cd : {CdAdvice::kNull, CdAdvice::kCollision}) {
        listener.on_receive(r, {}, cd, cm);
        listener.on_receive(r, std::span<const Message>(&vote, 1), cd, cm);
        EXPECT_TRUE(listener.dormant());
        EXPECT_FALSE(listener.has_message());
      }
    }
  }
  const Message payload{Message::Kind::kPayload, 1, 0};
  listener.on_receive(5, std::span<const Message>(&payload, 1),
                      CdAdvice::kNull, CmAdvice::kActive);
  EXPECT_FALSE(listener.dormant());
  EXPECT_TRUE(listener.has_message());
  EXPECT_EQ(listener.received_at(), 5u);
}

TEST(Flood, EngineSeesHoldersAwakeFromTheirReceiveRound) {
  // On the engine: every round, a process is dormant iff it lacks the
  // message, the engine's awake count is the holder count, and a holder
  // woke in exactly the round it received the payload.
  std::vector<std::unique_ptr<Process>> procs;
  for (std::size_t i = 0; i < 12; ++i) {
    FloodProcess::Options o;
    o.is_source = i == 0;
    o.fresh_rounds = 400;
    o.seed = 7000 + i;
    procs.push_back(std::make_unique<FloodProcess>(o));
  }
  LaneEngine ex =
      make_capture_engine(Topology::grid(4, 3), std::move(procs), {0.9, 0.5},
                          7);
  std::vector<Round> woke(ex.size(), kNeverRound);
  woke[0] = 0;
  for (Round r = 1; r <= 400; ++r) {
    ex.step();
    std::size_t holders = 0;
    for (std::size_t i = 0; i < ex.size(); ++i) {
      const auto& p = static_cast<const FloodProcess&>(ex.process(0, i));
      EXPECT_EQ(p.dormant(), !p.has_message()) << "process " << i;
      if (!p.has_message()) continue;
      ++holders;
      if (woke[i] == kNeverRound) woke[i] = r;
      EXPECT_EQ(p.received_at(), woke[i]) << "process " << i;
    }
    EXPECT_EQ(ex.num_awake(0), holders) << "round " << r;
  }
  EXPECT_EQ(ex.num_awake(0), ex.size());  // the grid is connected
}

}  // namespace
}  // namespace ccd
