// Allocation budget of a single-hop consensus run.  A counting global
// operator new (this test binary only) measures the heap allocations one
// n = 4 run makes end to end through WorldFactory::run_scenario -- spec
// block, world, engine, rounds and verdict -- per algorithm, and pins
// them: a change that adds an allocation to the single-hop path fails
// here and must say why.  A longer run must allocate no more than a
// shorter one: once the engine's buffers have reached their round size,
// a round allocates nothing.
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
  // engine (9: its five per-process vectors and the log's decision list,
  // the word buffer, the receive buffer -- reserved at a lossy round's
  // size -- and its offsets), the first lossy round (the delivery
  // matrix) and the verdict (3).
  struct Budget {
    AlgKind alg;
    std::size_t allocations;
  };
  constexpr Budget kBudgets[] = {{AlgKind::kAlg1, 26},
                                 {AlgKind::kAlg2, 26},
                                 {AlgKind::kAlg3, 26},
                                 {AlgKind::kAlg4, 26},
                                 {AlgKind::kNaive, 26}};
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

}  // namespace
}  // namespace ccd::exp
