#include "fault/failure_adversary.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/bitwords.hpp"
#include "util/rng.hpp"

namespace ccd {
namespace {

TEST(NoFailures, NeverCrashesAnyone) {
  NoFailures fault;
  const BitSet alive(4, true);
  BitSet out(4);
  for (Round r = 1; r <= 10; ++r) {
    fault.crash_before_send(r, alive, out.words());
    fault.crash_after_send(r, alive, out.words());
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(out.test(i));
  EXPECT_EQ(fault.last_crash_round(), 0u);
}

TEST(ScheduledCrash, FiresAtExactRoundAndPoint) {
  ScheduledCrash fault({{3, 1, CrashPoint::kBeforeSend},
                        {5, 2, CrashPoint::kAfterSend}});
  const BitSet alive(4, true);
  BitSet out(4);

  fault.crash_before_send(3, alive, out.words());
  EXPECT_TRUE(out.test(1));
  EXPECT_FALSE(out.test(2));

  out = BitSet(4);
  fault.crash_after_send(3, alive, out.words());
  EXPECT_FALSE(out.test(1));  // wrong point

  out = BitSet(4);
  fault.crash_after_send(5, alive, out.words());
  EXPECT_TRUE(out.test(2));

  EXPECT_EQ(fault.last_crash_round(), 5u);
}

TEST(ScheduledCrash, IgnoresAlreadyDeadTargets) {
  ScheduledCrash fault({{2, 0, CrashPoint::kBeforeSend}});
  const BitSet alive = {false, true};
  BitSet out(2);
  fault.crash_before_send(2, alive, out.words());
  EXPECT_FALSE(out.test(0));
}

TEST(ScheduledCrash, ProcessSixtyFourIsBitZeroOfWordOne) {
  ScheduledCrash fault({{1, 64, CrashPoint::kBeforeSend},
                        {2, 64, CrashPoint::kAfterSend},
                        {2, 63, CrashPoint::kAfterSend},
                        {3, 65, CrashPoint::kBeforeSend}});
  const BitSet alive(65, true);
  BitSet out(65);
  fault.crash_before_send(1, alive, out.words());
  EXPECT_EQ(out.words()[0], 0u);
  EXPECT_EQ(out.words()[1], 1u);

  out = BitSet(65);
  fault.crash_after_send(2, alive, out.words());
  EXPECT_EQ(out.words()[0], std::uint64_t{1} << 63);
  EXPECT_EQ(out.words()[1], 1u);

  // Process 65 does not exist at n = 65: no bit at or above n.
  out = BitSet(65);
  fault.crash_before_send(3, alive, out.words());
  EXPECT_EQ(out.count(), 0u);
}

TEST(RandomCrash, NeverKillsLastSurvivor) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 100,
                     .seed = 3});
  BitSet alive(5, true);
  for (Round r = 1; r <= 100; ++r) {
    BitSet out(5);
    fault.crash_before_send(r, alive, out.words());
    for (std::size_t i = 0; i < 5; ++i) {
      if (out.test(i)) alive.set(i, false);
    }
    ASSERT_GE(alive.count(), 1u);
  }
  EXPECT_EQ(alive.count(), 1u);  // p = 1.0 kills everyone else immediately
}

TEST(RandomCrash, RespectsMaxCrashes) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 2,
                     .seed = 4});
  BitSet alive(6, true);
  int total = 0;
  for (Round r = 1; r <= 100; ++r) {
    BitSet out(6);
    fault.crash_before_send(r, alive, out.words());
    for (std::size_t i = 0; i < 6; ++i) {
      if (out.test(i)) {
        alive.set(i, false);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 2);
}

TEST(RandomCrash, StopsAfterConfiguredRound) {
  RandomCrash fault({.p = 0.5, .stop_after = 3, .max_crashes = 100,
                     .seed = 5});
  const BitSet alive(4, true);
  BitSet out(4);
  fault.crash_before_send(4, alive, out.words());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(out.test(i));
  EXPECT_EQ(fault.last_crash_round(), 3u);
}

BitSet random_mask(Rng& rng, std::size_t n) {
  BitSet alive(n);
  for (std::size_t i = 0; i < n; ++i) alive.set(i, rng.chance(0.7));
  return alive;
}

TEST(RandomCrash, MarksOnlyLiveProcessesBelowN) {
  // At the word boundary: no mark on a dead index, none at or above n
  // (the partial last word's high bits stay zero).
  for (std::size_t n : {64u, 65u}) {
    RandomCrash fault({.p = 0.5, .stop_after = 100, .max_crashes = ~0u,
                       .seed = 12});
    Rng rng(0xb17u + n);
    for (Round r = 1; r <= 50; ++r) {
      const BitSet alive = random_mask(rng, n);
      BitSet out(n);
      fault.crash_before_send(r, alive, out.words());
      for (std::size_t w = 0; w < out.words().size(); ++w) {
        EXPECT_EQ(out.words()[w] & ~alive.view().words()[w], 0u)
            << "n " << n << " round " << r << " word " << w;
      }
      if (n % 64) {
        EXPECT_EQ(out.words().back() >> (n % 64), 0u);
      }
    }
  }
}

// The engines call the crash hooks only while r <= last_crash_round().
// That is sound only if, past the bound, the hooks mark nobody (checked
// for every adversary on random alive masks) and skipping them changes no
// mark (checked for the one adversary with state, RandomCrash).

void expect_silent_after_window(FailureAdversary& fault, const char* what) {
  Rng rng(0xfa17u);
  const Round last = fault.last_crash_round();
  for (Round r = last + 1; r <= last + 200; ++r) {
    const BitSet alive = random_mask(rng, 1 + rng.below(70));
    BitSet before(alive.size());
    BitSet after(alive.size());
    fault.crash_before_send(r, alive, before.words());
    fault.crash_after_send(r, alive, after.words());
    for (std::size_t i = 0; i < alive.size(); ++i) {
      ASSERT_FALSE(before.test(i))
          << what << " round " << r << " process " << i;
      ASSERT_FALSE(after.test(i)) << what << " round " << r << " process " << i;
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
  BitSet alive(40, true);
  for (Round r = 1; r <= 30; ++r) {
    // Random revivals keep the masks varied past the first crashes.
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (rng.chance(0.1)) alive.set(i);
    }
    BitSet a(alive.size());
    BitSet b(alive.size());
    every_round.crash_before_send(r, alive, a.words());
    every_round.crash_after_send(r, alive, a.words());
    if (r <= windowed.last_crash_round()) {
      windowed.crash_before_send(r, alive, b.words());
      windowed.crash_after_send(r, alive, b.words());
    }
    ASSERT_EQ(a, b) << "round " << r;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (a.test(i)) alive.set(i, false);
    }
  }
}

}  // namespace
}  // namespace ccd
