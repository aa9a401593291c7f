// The Section 4.1 remark, executable: anonymous counting works with a
// k-wake-up service and fails with a leader election service.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/k_wakeup.hpp"
#include "cm/leader_election.hpp"
#include "consensus/counting.hpp"
#include "fault/failure_adversary.hpp"
#include "net/ecf_adversary.hpp"
#include "sim/executor.hpp"
#include "util/bitwords.hpp"

namespace ccd {
namespace {

World counting_world(std::size_t n, std::unique_ptr<ContentionManager> cm) {
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.processes.push_back(std::make_unique<CountingProcess>());
    w.initial_values.push_back(0);
  }
  w.cm = std::move(cm);
  w.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                          make_truthful_policy());
  EcfAdversary::Options ecf;
  ecf.r_cf = 1;
  w.loss = std::make_unique<EcfAdversary>(ecf);
  w.fault = std::make_unique<NoFailures>();
  return w;
}

std::vector<std::uint64_t> run_counting(World world, Round rounds) {
  ExecutorOptions options;
  options.record_views = false;
  options.stop_when_all_decided = false;
  Executor executor(std::move(world), options);
  for (Round r = 0; r < rounds; ++r) executor.step();
  std::vector<std::uint64_t> counts;
  for (const auto& p : executor.world().processes) {
    counts.push_back(static_cast<const CountingProcess&>(*p).count());
  }
  return counts;
}

class KWakeupCounting
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KWakeupCounting, EveryProcessConvergesToN) {
  const auto [ni, ki] = GetParam();
  const auto n = static_cast<std::size_t>(ni);
  const auto k = static_cast<std::uint32_t>(ki);
  KWakeupService::Options opts;
  opts.r_wake = 1;
  opts.k = k;
  KWakeupService reference(opts);
  const Round needed = reference.rotation_complete(n) + 2;
  auto counts = run_counting(
      counting_world(n, std::make_unique<KWakeupService>(opts)), needed);
  for (std::uint64_t c : counts) EXPECT_EQ(c, n) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KWakeupCounting,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 9,
                                                              17),
                                            ::testing::Values(1, 2, 4)));

TEST(KWakeupCounting, CountStaysStableAfterRotation) {
  KWakeupService::Options opts;
  opts.r_wake = 1;
  opts.k = 2;
  auto counts = run_counting(
      counting_world(6, std::make_unique<KWakeupService>(opts)), 200);
  for (std::uint64_t c : counts) EXPECT_EQ(c, 6u);
}

TEST(LeaderElectionCounting, UndercountsForever) {
  // The leader election service never schedules anyone but the leader: a
  // network of 6 anonymous processes is indistinguishable from a network
  // of 1, so every counter sticks at 1 -- the impossibility half of the
  // remark.
  LeaderElectionService::Options opts;
  opts.r_lead = 1;
  opts.pre_all_active = false;
  auto counts = run_counting(
      counting_world(6, std::make_unique<LeaderElectionService>(opts)), 300);
  for (std::uint64_t c : counts) EXPECT_EQ(c, 1u);
}

TEST(KWakeupService, RotationScheduleIsFair) {
  KWakeupService::Options opts;
  opts.r_wake = 1;
  opts.k = 3;
  KWakeupService cm(opts);
  const BitSet alive(4, true);
  std::vector<CmAdvice> advice;
  std::vector<int> windows(4, 0);
  for (Round r = 1; r <= 24; ++r) {  // two full rotations
    cm.advise(r, alive, advice);
    int active = -1, count = 0;
    for (int i = 0; i < 4; ++i) {
      if (advice[i] == CmAdvice::kActive) {
        active = i;
        ++count;
      }
    }
    ASSERT_EQ(count, 1);
    ++windows[active];
  }
  for (int w : windows) EXPECT_EQ(w, 6);  // 2 rotations x k = 3
}

TEST(KWakeupService, NonRepeatingVariantGoesQuiet) {
  KWakeupService::Options opts;
  opts.r_wake = 1;
  opts.k = 1;
  opts.repeat = false;
  KWakeupService cm(opts);
  const BitSet alive(3, true);
  std::vector<CmAdvice> advice;
  cm.advise(4, alive, advice);  // past the 3-round rotation
  for (CmAdvice a : advice) EXPECT_EQ(a, CmAdvice::kPassive);
}

}  // namespace
}  // namespace ccd
