// Allocation budget of a single-hop consensus run and of a capture-channel
// flood or MIS run.  A counting global operator new (this test binary
// only) measures the heap allocations one n = 4 single-hop run (per
// algorithm) or one n = 16 grid run (per workload) makes end to end
// through WorldFactory::run_scenario -- spec block, world, engine, rounds
// and verdict -- and pins them: a change that adds an allocation to
// either path fails here and must say why.  A longer run must allocate no
// more than a shorter one: once the engine's buffers have reached their
// round size, a round allocates nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "exp/scenario_spec.hpp"
#include "exp/world_factory.hpp"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined next to a new-expression, GCC reads the free() of
// a pointer from operator new as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ccd::exp {
namespace {

/// One cell of the single-hop sweep at n = 4, |V| = 2, CST 3 under a
/// lossy channel (so the loss adversary's delivery matrix is in the
/// count).
ScenarioSpec single_hop(AlgKind alg, Round max_rounds) {
  ScenarioSpec spec;
  spec.alg = alg;
  spec.n = 4;
  spec.num_values = 2;
  spec.cst_target = 3;
  spec.loss = LossKind::kEcf;
  spec.max_rounds = max_rounds;
  spec.seed = 7;
  return spec;
}

struct Counted {
  std::size_t allocations = 0;
  Round rounds = 0;
  std::size_t decided_values = 0;
};

Counted run_counted(const ScenarioSpec& spec) {
  const std::size_t before = g_allocations;
  const ScenarioOutcome out = WorldFactory::run_scenario(spec);
  return {g_allocations - before, out.summary.result.rounds_executed,
          out.summary.verdict.decided_values.size()};
}

TEST(AllocBudget, SingleHopRunPerAlgorithm) {
  // Per run: the one-spec block and its outcome (2), the world (11: four
  // processes and their vector, the initial values, cm, detector and its
  // policy, loss and fault; the algorithm object lives on the stack), the
  // engine (8: its four per-process vectors and the log's decision list,
  // the word buffer -- detector advice included, as one collision row --
  // the receive buffer, reserved at a lossy round's size, and its
  // offsets), the first lossy round (the delivery matrix) and the verdict
  // (3).
  struct Budget {
    AlgKind alg;
    std::size_t allocations;
  };
  constexpr Budget kBudgets[] = {{AlgKind::kAlg1, 25},
                                 {AlgKind::kAlg2, 25},
                                 {AlgKind::kAlg3, 25},
                                 {AlgKind::kAlg4, 25},
                                 {AlgKind::kNaive, 25}};
  for (const Budget& budget : kBudgets) {
    const Counted c = run_counted(single_hop(budget.alg, 32));
    EXPECT_GT(c.rounds, 0u) << to_string(budget.alg);
    EXPECT_EQ(c.allocations, budget.allocations) << to_string(budget.alg);
  }
}

TEST(AllocBudget, LongerRunsAllocateNoMore) {
  // Stacks that keep each algorithm running: without collision detection
  // or contention management over an unrestricted channel, Algorithms 1,
  // 2 and 4 run to the round cap, and Algorithm 3 walks the bits of a
  // 16-bit value space past round 56.  (The naive algorithm decides in
  // its first round at n = 4
  // whatever the stack: an active process hears its own estimate.)  Both
  // runs stop before any decision: the verdict's list of decided values
  // is allocated only when there is one.
  struct Long {
    AlgKind alg;
    DetectorKind detector;
    std::uint64_t num_values;
  };
  constexpr Long kLong[] = {{AlgKind::kAlg1, DetectorKind::kNoCd, 2},
                            {AlgKind::kAlg2, DetectorKind::kNoCd, 2},
                            {AlgKind::kAlg3, DetectorKind::kZeroAC, 65536},
                            {AlgKind::kAlg4, DetectorKind::kNoCd, 2}};
  for (const Long& run : kLong) {
    ScenarioSpec spec = single_hop(run.alg, 4);
    spec.detector = run.detector;
    spec.num_values = run.num_values;
    spec.cm = CmKind::kNoCm;
    spec.loss = LossKind::kUnrestricted;
    const Counted short_run = run_counted(spec);
    spec.max_rounds = 56;
    const Counted long_run = run_counted(spec);
    EXPECT_EQ(long_run.rounds, 56u) << to_string(run.alg);
    EXPECT_EQ(long_run.decided_values, 0u) << to_string(run.alg);
    EXPECT_LE(long_run.allocations, short_run.allocations)
        << to_string(run.alg);
  }
}

/// Flood or MIS on the 4 x 4 grid (n = 16) over the capture channel, under
/// a zero-complete accurate detector and the probabilistic link model
/// (lone neighbours arrive with p 0.5, captures with p 0.25).
ScenarioSpec capture_grid(WorkloadKind workload, Round max_rounds) {
  ScenarioSpec spec;
  spec.workload = workload;
  spec.topology = TopologyKind::kGrid;
  spec.n = 16;
  spec.detector = DetectorKind::kZeroAC;
  spec.loss = LossKind::kProbabilistic;
  spec.p_deliver = 0.5;
  spec.max_rounds = max_rounds;
  spec.seed = 7;
  return spec;
}

Counted run_capture_counted(const ScenarioSpec& spec) {
  const std::size_t before = g_allocations;
  const ScenarioOutcome out = WorldFactory::run_scenario(spec);
  return {g_allocations - before, out.mh.rounds_executed, 0};
}

TEST(AllocBudget, CaptureRunPerWorkload) {
  // Per run the capture path allocates what the single-hop one does plus
  // the grid (its neighbour lists), the engine's adjacency rows, and one
  // object per process for 16 processes; the round itself allocates
  // nothing.  The count planes, the captured row and the advice live in
  // the engine's one word buffer, the receive buffer is sized once (two
  // slots per receiver), and the capture path keeps no per-process
  // counts.
  struct Budget {
    WorkloadKind workload;
    std::size_t allocations;
  };
  constexpr Budget kBudgets[] = {{WorkloadKind::kFlood, 83},
                                 {WorkloadKind::kMis, 84}};
  for (const Budget& budget : kBudgets) {
    const Counted c = run_capture_counted(capture_grid(budget.workload, 64));
    EXPECT_GT(c.rounds, 0u) << to_string(budget.workload);
    EXPECT_EQ(c.allocations, budget.allocations) << to_string(budget.workload);
  }
}

TEST(AllocBudget, LongerCaptureRunsAllocateNoMore) {
  // Neither workload completes within 15 rounds on this grid (the flood
  // covers it in 21, MIS settles in 16), so both runs use their whole
  // budget.
  for (WorkloadKind workload : {WorkloadKind::kFlood, WorkloadKind::kMis}) {
    const Counted short_run = run_capture_counted(capture_grid(workload, 4));
    const Counted long_run = run_capture_counted(capture_grid(workload, 15));
    EXPECT_EQ(short_run.rounds, 4u) << to_string(workload);
    EXPECT_EQ(long_run.rounds, 15u) << to_string(workload);
    EXPECT_LE(long_run.allocations, short_run.allocations)
        << to_string(workload);
  }
}

}  // namespace
}  // namespace ccd::exp
