#include <gtest/gtest.h>

#include "cm/adversarial_cm.hpp"
#include "cm/backoff_cm.hpp"
#include "cm/leader_election.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "util/bitwords.hpp"
#include "util/rng.hpp"

namespace ccd {
namespace {

std::uint32_t active_count(const std::vector<CmAdvice>& advice) {
  std::uint32_t n = 0;
  for (CmAdvice a : advice) n += a == CmAdvice::kActive ? 1 : 0;
  return n;
}

TEST(NoCm, EveryoneActiveAlways) {
  NoCm cm;
  BitSet alive(5, true);
  std::vector<CmAdvice> advice;
  for (Round r = 1; r <= 20; ++r) {
    cm.advise(r, alive, advice);
    EXPECT_EQ(active_count(advice), 5u);
  }
  EXPECT_EQ(cm.stabilization_round(), kNeverRound);
}

TEST(WakeupService, ExactlyOneActiveAfterRwake) {
  WakeupService::Options opts;
  opts.r_wake = 10;
  opts.pre = WakeupService::PreStabilization::kAllActive;
  WakeupService cm(opts);
  BitSet alive(6, true);
  std::vector<CmAdvice> advice;
  for (Round r = 1; r <= 50; ++r) {
    cm.advise(r, alive, advice);
    if (r >= 10) {
      EXPECT_EQ(active_count(advice), 1u) << "round " << r;
    } else {
      EXPECT_EQ(active_count(advice), 6u);
    }
  }
}

TEST(WakeupService, RotationIsWsButNotLs) {
  WakeupService::Options opts;
  opts.r_wake = 1;
  opts.post = WakeupService::PostStabilization::kRotateAlive;
  WakeupService cm(opts);
  BitSet alive(3, true);
  std::vector<CmAdvice> advice;
  std::vector<int> chosen;
  for (Round r = 1; r <= 6; ++r) {
    cm.advise(r, alive, advice);
    ASSERT_EQ(active_count(advice), 1u);
    for (int i = 0; i < 3; ++i) {
      if (advice[i] == CmAdvice::kActive) chosen.push_back(i);
    }
  }
  // Round-robin: 0,1,2,0,1,2.
  EXPECT_EQ(chosen, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(WakeupService, MinAliveAdaptsToCrashes) {
  WakeupService::Options opts;
  opts.r_wake = 1;
  WakeupService cm(opts);
  BitSet alive = {true, true, true};
  std::vector<CmAdvice> advice;
  cm.advise(1, alive, advice);
  EXPECT_EQ(advice[0], CmAdvice::kActive);
  alive.set(0, false);
  cm.advise(2, alive, advice);
  EXPECT_EQ(advice[0], CmAdvice::kPassive);
  EXPECT_EQ(advice[1], CmAdvice::kActive);
}

TEST(WakeupService, FixedMinIgnoresCrashes) {
  WakeupService::Options opts;
  opts.r_wake = 1;
  opts.post = WakeupService::PostStabilization::kFixedMin;
  WakeupService cm(opts);
  BitSet alive = {false, true};
  std::vector<CmAdvice> advice;
  cm.advise(5, alive, advice);
  // Legal per the formal WS definition, deadly for liveness: the dead
  // process keeps the slot.
  EXPECT_EQ(advice[0], CmAdvice::kActive);
  EXPECT_EQ(advice[1], CmAdvice::kPassive);
}

TEST(WakeupService, AllPassivePreStabilization) {
  WakeupService::Options opts;
  opts.r_wake = 4;
  opts.pre = WakeupService::PreStabilization::kAllPassive;
  WakeupService cm(opts);
  BitSet alive(4, true);
  std::vector<CmAdvice> advice;
  for (Round r = 1; r <= 3; ++r) {
    cm.advise(r, alive, advice);
    EXPECT_EQ(active_count(advice), 0u);
  }
}

TEST(LeaderElection, SameLeaderForever) {
  LeaderElectionService::Options opts;
  opts.r_lead = 5;
  LeaderElectionService cm(opts);
  BitSet alive(4, true);
  std::vector<CmAdvice> advice;
  for (Round r = 5; r <= 30; ++r) {
    cm.advise(r, alive, advice);
    ASSERT_EQ(active_count(advice), 1u);
    EXPECT_EQ(advice[0], CmAdvice::kActive);
  }
  EXPECT_EQ(cm.current_leader(), 0u);
}

TEST(LeaderElection, ReelectsOnCrashWhenAdaptive) {
  LeaderElectionService::Options opts;
  opts.r_lead = 1;
  opts.adapt_on_crash = true;
  LeaderElectionService cm(opts);
  BitSet alive = {true, true};
  std::vector<CmAdvice> advice;
  cm.advise(1, alive, advice);
  EXPECT_EQ(cm.current_leader(), 0u);
  alive.set(0, false);
  cm.advise(2, alive, advice);
  EXPECT_EQ(cm.current_leader(), 1u);
  EXPECT_EQ(advice[1], CmAdvice::kActive);
}

TEST(LeaderElection, StrictVariantKeepsDeadLeader) {
  LeaderElectionService::Options opts;
  opts.r_lead = 1;
  opts.adapt_on_crash = false;
  LeaderElectionService cm(opts);
  BitSet alive = {true, true};
  std::vector<CmAdvice> advice;
  cm.advise(1, alive, advice);
  alive.set(0, false);
  cm.advise(2, alive, advice);
  EXPECT_EQ(advice[0], CmAdvice::kActive);  // formally legal LS behaviour
  EXPECT_EQ(advice[1], CmAdvice::kPassive);
}

TEST(ScriptedCm, ReplaysScriptThenLastEntry) {
  std::vector<std::vector<CmAdvice>> script = {
      {CmAdvice::kActive, CmAdvice::kActive},
      {CmAdvice::kPassive, CmAdvice::kActive}};
  ScriptedCm cm(script, 2);
  BitSet alive(2, true);
  std::vector<CmAdvice> advice;
  cm.advise(1, alive, advice);
  EXPECT_EQ(active_count(advice), 2u);
  cm.advise(2, alive, advice);
  EXPECT_EQ(advice[0], CmAdvice::kPassive);
  cm.advise(99, alive, advice);  // beyond script: replay final entry
  EXPECT_EQ(advice[1], CmAdvice::kActive);
}

TEST(TwoGroupMaxLs, TwoMinimaThenOne) {
  TwoGroupMaxLs cm(/*split=*/3, /*k=*/4);
  BitSet alive(6, true);
  std::vector<CmAdvice> advice;
  for (Round r = 1; r <= 4; ++r) {
    cm.advise(r, alive, advice);
    EXPECT_EQ(active_count(advice), 2u);
    EXPECT_EQ(advice[0], CmAdvice::kActive);
    EXPECT_EQ(advice[3], CmAdvice::kActive);
  }
  cm.advise(5, alive, advice);
  EXPECT_EQ(active_count(advice), 1u);
  EXPECT_EQ(advice[0], CmAdvice::kActive);
  EXPECT_EQ(cm.stabilization_round(), 5u);
}

TEST(BackoffCm, EventuallyLocksOntoOneProcess) {
  BackoffCm cm(BackoffCm::Options{.seed = 5});
  BitSet alive(16, true);
  std::vector<CmAdvice> advice;
  Round r = 1;
  for (; r <= 2000; ++r) {
    cm.advise(r, alive, advice);
    if (cm.stabilized_at() != kNeverRound) break;
  }
  ASSERT_NE(cm.stabilized_at(), kNeverRound) << "never locked";
  // After locking, always the same single process.
  int locked = -1;
  for (Round rr = r + 1; rr <= r + 50; ++rr) {
    cm.advise(rr, alive, advice);
    ASSERT_EQ(active_count(advice), 1u);
    for (int i = 0; i < 16; ++i) {
      if (advice[i] == CmAdvice::kActive) {
        if (locked < 0) locked = i;
        EXPECT_EQ(i, locked);
      }
    }
  }
}

TEST(BackoffCm, RelocksAfterLeaderCrash) {
  BackoffCm cm(BackoffCm::Options{.seed = 6});
  BitSet alive(8, true);
  std::vector<CmAdvice> advice;
  Round r = 1;
  for (; r <= 2000 && cm.stabilized_at() == kNeverRound; ++r) {
    cm.advise(r, alive, advice);
  }
  ASSERT_NE(cm.stabilized_at(), kNeverRound);
  int locked = -1;
  cm.advise(++r, alive, advice);
  for (int i = 0; i < 8; ++i) {
    if (advice[i] == CmAdvice::kActive) locked = i;
  }
  ASSERT_GE(locked, 0);
  alive.set(locked, false);
  bool relocked = false;
  for (Round rr = r + 1; rr <= r + 2000; ++rr) {
    cm.advise(rr, alive, advice);
    if (active_count(advice) == 1) {
      int current = -1;
      for (int i = 0; i < 8; ++i) {
        if (advice[i] == CmAdvice::kActive) current = i;
      }
      if (current != locked) {
        relocked = true;
        break;
      }
    }
  }
  EXPECT_TRUE(relocked);
}

TEST(BackoffCm, AdvisesOnlyParticipantsAtTheWordBoundary) {
  // n = 64 and 65: never an active non-participant, and advice for exactly
  // the n processes (nothing at or above n).
  for (std::size_t n : {64u, 65u}) {
    BackoffCm cm(BackoffCm::Options{.seed = 8, .initial_window = 2});
    Rng rng(0xc0ffu + n);
    std::vector<CmAdvice> advice;
    for (Round r = 1; r <= 200; ++r) {
      BitSet participating(n);
      for (std::size_t i = 0; i < n; ++i) {
        participating.set(i, rng.chance(0.6));
      }
      cm.advise(r, participating, advice);
      ASSERT_EQ(advice.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (advice[i] == CmAdvice::kActive) {
          EXPECT_TRUE(participating.test(i))
              << "n " << n << " round " << r << " process " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccd
