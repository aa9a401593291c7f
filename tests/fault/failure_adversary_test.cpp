#include "fault/failure_adversary.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace ccd {
namespace {

TEST(NoFailures, NeverCrashesAnyone) {
  NoFailures fault;
  std::vector<bool> alive(4, true);
  std::vector<bool> out(4, false);
  for (Round r = 1; r <= 10; ++r) {
    fault.crash_before_send(r, alive, out);
    fault.crash_after_send(r, alive, out);
  }
  for (bool b : out) EXPECT_FALSE(b);
  EXPECT_EQ(fault.last_crash_round(), 0u);
}

TEST(ScheduledCrash, FiresAtExactRoundAndPoint) {
  ScheduledCrash fault({{3, 1, CrashPoint::kBeforeSend},
                        {5, 2, CrashPoint::kAfterSend}});
  std::vector<bool> alive(4, true);
  std::vector<bool> out(4, false);

  fault.crash_before_send(3, alive, out);
  EXPECT_TRUE(out[1]);
  EXPECT_FALSE(out[2]);

  out.assign(4, false);
  fault.crash_after_send(3, alive, out);
  EXPECT_FALSE(out[1]);  // wrong point

  out.assign(4, false);
  fault.crash_after_send(5, alive, out);
  EXPECT_TRUE(out[2]);

  EXPECT_EQ(fault.last_crash_round(), 5u);
}

TEST(ScheduledCrash, IgnoresAlreadyDeadTargets) {
  ScheduledCrash fault({{2, 0, CrashPoint::kBeforeSend}});
  std::vector<bool> alive = {false, true};
  std::vector<bool> out(2, false);
  fault.crash_before_send(2, alive, out);
  EXPECT_FALSE(out[0]);
}

TEST(RandomCrash, NeverKillsLastSurvivor) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 100,
                     .seed = 3});
  std::vector<bool> alive(5, true);
  for (Round r = 1; r <= 100; ++r) {
    std::vector<bool> out(5, false);
    fault.crash_before_send(r, alive, out);
    for (std::size_t i = 0; i < 5; ++i) {
      if (out[i]) alive[i] = false;
    }
    int survivors = 0;
    for (bool a : alive) survivors += a ? 1 : 0;
    ASSERT_GE(survivors, 1);
  }
  int survivors = 0;
  for (bool a : alive) survivors += a ? 1 : 0;
  EXPECT_EQ(survivors, 1);  // p = 1.0 kills everyone else immediately
}

TEST(RandomCrash, RespectsMaxCrashes) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 2,
                     .seed = 4});
  std::vector<bool> alive(6, true);
  int total = 0;
  for (Round r = 1; r <= 100; ++r) {
    std::vector<bool> out(6, false);
    fault.crash_before_send(r, alive, out);
    for (std::size_t i = 0; i < 6; ++i) {
      if (out[i]) {
        alive[i] = false;
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 2);
}

TEST(RandomCrash, StopsAfterConfiguredRound) {
  RandomCrash fault({.p = 0.5, .stop_after = 3, .max_crashes = 100,
                     .seed = 5});
  std::vector<bool> alive(4, true);
  std::vector<bool> out(4, false);
  fault.crash_before_send(4, alive, out);
  for (bool b : out) EXPECT_FALSE(b);
  EXPECT_EQ(fault.last_crash_round(), 3u);
}

// The engines call the crash hooks only while r <= last_crash_round().
// That is sound only if, past the bound, the hooks mark nobody (checked
// for every adversary on random alive masks) and skipping them changes no
// mark (checked for the one adversary with state, RandomCrash).

std::vector<bool> random_mask(Rng& rng, std::size_t n) {
  std::vector<bool> alive(n);
  for (std::size_t i = 0; i < n; ++i) alive[i] = rng.chance(0.7);
  return alive;
}

void expect_silent_after_window(FailureAdversary& fault, const char* what) {
  Rng rng(0xfa17u);
  const Round last = fault.last_crash_round();
  for (Round r = last + 1; r <= last + 200; ++r) {
    const std::vector<bool> alive = random_mask(rng, 1 + rng.below(70));
    std::vector<bool> before(alive.size(), false);
    std::vector<bool> after(alive.size(), false);
    fault.crash_before_send(r, alive, before);
    fault.crash_after_send(r, alive, after);
    for (std::size_t i = 0; i < alive.size(); ++i) {
      ASSERT_FALSE(before[i]) << what << " round " << r << " process " << i;
      ASSERT_FALSE(after[i]) << what << " round " << r << " process " << i;
    }
  }
}

TEST(CrashWindow, HooksMarkNobodyAfterLastCrashRound) {
  NoFailures none;
  expect_silent_after_window(none, "NoFailures");

  ScheduledCrash scheduled({{1, 0, CrashPoint::kBeforeSend},
                            {4, 3, CrashPoint::kAfterSend},
                            {7, 5, CrashPoint::kBeforeSend},
                            {7, 2, CrashPoint::kAfterSend}});
  EXPECT_EQ(scheduled.last_crash_round(), 7u);
  expect_silent_after_window(scheduled, "ScheduledCrash");

  RandomCrash random_crash({.p = 1.0, .stop_after = 6, .max_crashes = ~0u,
                            .seed = 9});
  expect_silent_after_window(random_crash, "RandomCrash");
}

TEST(CrashWindow, SkippingRandomCrashPastStopAfterChangesNoMark) {
  // Two identical adversaries see identical alive masks; one is called
  // every round, the other only inside its window.  Their marks must agree
  // round for round.
  const RandomCrash::Options opts{.p = 0.3, .stop_after = 8,
                                  .max_crashes = ~0u, .seed = 11};
  RandomCrash every_round(opts);
  RandomCrash windowed(opts);
  Rng rng(0x5eedu);
  std::vector<bool> alive(40, true);
  for (Round r = 1; r <= 30; ++r) {
    // Random revivals keep the masks varied past the first crashes.
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (rng.chance(0.1)) alive[i] = true;
    }
    std::vector<bool> a(alive.size(), false);
    std::vector<bool> b(alive.size(), false);
    every_round.crash_before_send(r, alive, a);
    every_round.crash_after_send(r, alive, a);
    if (r <= windowed.last_crash_round()) {
      windowed.crash_before_send(r, alive, b);
      windowed.crash_after_send(r, alive, b);
    }
    ASSERT_EQ(a, b) << "round " << r;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (a[i]) alive[i] = false;
    }
  }
}

}  // namespace
}  // namespace ccd
