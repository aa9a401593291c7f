// Golden-report equivalence: the engine unification's acceptance
// gate.  The smoke, crash, multihop and mhloss named grids (and multihop
// at n = 15) must emit JSON, CSV and dist reports BYTE-identical to frozen
// output -- the first three
// hashes below were captured from the dual-executor implementation
// (sim::Executor + MultihopExecutor as separate classes) immediately
// before the engine landed, so any drift in round semantics, RNG stream
// discipline, aggregation order or rendering shows up here as a hash
// mismatch.
//
// The ccd-dist-v1 hashes (full distributions, raw-sample doubles in their
// shortest round-trip form) were captured from the printf-based number
// formatters, immediately before every report number moved to util's
// <charconv> formatters.
//
// To regenerate after an INTENTIONAL report change, run
//   ccd_sweep --grid <name> --threads 8 --quiet --json g.json --csv g.csv
// with --dist-out g.dist.json (and --n <n> for an entry that sets n), and
// FNV-1a-64 the files (same function as SweepGrid::fingerprint), without
// the dist file's trailing newline.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  const char* grid;
  std::uint64_t json_hash;
  std::uint64_t csv_hash;
  std::uint64_t dist_hash;
  std::uint32_t n = 0;  ///< nonzero: the grid's ns axis becomes {n}
};

/// The entry's name in failure messages: the grid, plus "@n<n>" if set.
std::string label(const Golden& golden) {
  std::string out = golden.grid;
  if (golden.n != 0) out += "@n" + std::to_string(golden.n);
  return out;
}

std::optional<SweepGrid> golden_grid(const Golden& golden) {
  auto grid = SweepGrid::named(golden.grid);
  if (grid && golden.n != 0) grid->ns = {golden.n};
  return grid;
}

// smoke, crash and multihop: captured from the pre-RoundEngine
// implementation.  mhloss (lossy kMatrix delivery over
// non-clique topologies): captured from the per-receiver multiset engine,
// before delivery learned to skip receivers that hear nothing -- its
// lanes-on/off and thread-count checks below both run the changed code,
// so only a frozen hash catches a behaviour change there.
constexpr Golden kGoldens[] = {
    {"smoke", 0xf0957afa21205b0eull, 0x1a460b776478edb5ull,
     0xf3ace2064ba86b5dull},
    {"crash", 0x5db396db7e9114ceull, 0x78c449f2f7bd594full,
     0x08a267bdd63ea5aeull},
    {"multihop", 0x3662e9ebcf7db391ull, 0x54b9c7f514e5570dull,
     0x3be759a4cf8de8b9ull},
    {"mhloss", 0x9df3343a563033dcull, 0x09eda35ce79684abull,
     0xf820ab4ad172f794ull},
    // multihop at n = 15: raw samples such as messages_per_node = k/15
    // need 16-17 significant digits, and the raw sample 10 renders as the
    // one-digit "1e+01" (three digits would read "10"), so the dist hash
    // pins both ends of the shortest round-trip search; every sample of
    // the shipped grids fits in 8 digits.  Captured from the engine
    // before single-hop runs stopped allocating per round.
    {"multihop", 0x24c9d573384de382ull, 0xbd5b585c2c9c11a4ull,
     0xd5927d81bcbb521eull, 15},
};

TEST(GoldenReports, EngineReproducesPreRefactorReportsByteIdentically) {
  // Both partitions -- lane blocks of up to 64 seeds (the default) and
  // one-lane blocks -- must reproduce the pre-refactor bytes.
  for (const bool lanes : {true, false}) {
    for (const Golden& golden : kGoldens) {
      auto grid = golden_grid(golden);
      ASSERT_TRUE(grid.has_value()) << label(golden);
      SweepOptions options;
      options.threads = 4;  // determinism must not depend on thread count
      options.lanes = lanes;
      const auto cells = aggregate(*grid, run_sweep(*grid, options));
      EXPECT_EQ(fnv1a(aggregates_to_json(*grid, cells)), golden.json_hash)
          << label(golden) << ".json drifted from the pre-refactor bytes"
          << " (lanes=" << lanes << ")";
      EXPECT_EQ(fnv1a(aggregates_to_csv(cells)), golden.csv_hash)
          << label(golden) << ".csv drifted from the pre-refactor bytes"
          << " (lanes=" << lanes << ")";
      EXPECT_EQ(fnv1a(cells_to_dist_json(*grid, cells)), golden.dist_hash)
          << label(golden) << ".dist.json drifted from the frozen bytes"
          << " (lanes=" << lanes << ")";
    }
  }
}

TEST(GoldenReports, TelemetryNeverPerturbsReportBytes) {
  // The obs/ subsystem's one hard invariant, pinned against the SAME
  // golden hashes: running with telemetry fully enabled (SweepPerf span
  // collection, progress callbacks firing, per-thread sinks accumulating)
  // must reproduce the telemetry-off report bytes exactly.
  obs::Telemetry::global().reset();
  for (const Golden& golden : kGoldens) {
    auto grid = golden_grid(golden);
    ASSERT_TRUE(grid.has_value()) << label(golden);
    obs::SweepPerf perf;
    std::atomic<std::size_t> progress_calls{0};
    SweepOptions options;
    options.threads = 4;
    options.perf = &perf;
    options.progress = [&progress_calls](std::size_t, std::size_t) {
      progress_calls.fetch_add(1, std::memory_order_relaxed);
    };
    const auto cells = aggregate(*grid, run_sweep(*grid, options));
    EXPECT_EQ(fnv1a(aggregates_to_json(*grid, cells)), golden.json_hash)
        << label(golden) << ".json perturbed by telemetry";
    EXPECT_EQ(fnv1a(aggregates_to_csv(cells)), golden.csv_hash)
        << label(golden) << ".csv perturbed by telemetry";

    // ...and telemetry actually observed the execution: every run timed
    // and attributed, counters live, progress fired once per run.
    EXPECT_EQ(perf.runs, grid->num_runs());
    EXPECT_EQ(perf.spans.size(), grid->num_runs());
    EXPECT_GT(perf.wall_ns, 0u);
    EXPECT_GT(perf.counters.rounds, 0u);
    EXPECT_EQ(progress_calls.load(), grid->num_runs());
    const obs::PerfSidecar sidecar =
        obs::build_perf_sidecar(grid->fingerprint(), 0, 1, perf);
    EXPECT_EQ(sidecar.cells.size(), grid->num_cells());
  }
  EXPECT_GE(obs::Telemetry::global().total(obs::Counter::kRunsExecuted),
            SweepGrid::named("smoke")->num_runs());
  obs::Telemetry::global().reset();
}

TEST(GoldenReports, EngineCountersAreThreadAndScheduleInvariant) {
  // Counters are a pure function of the specs executed, so the SweepPerf
  // totals -- unlike any timing number -- are identical at any thread
  // count.  This is what makes shard-merged counter sums exact.
  auto grid = SweepGrid::named("smoke");
  ASSERT_TRUE(grid.has_value());
  obs::SweepPerf one_perf, eight_perf;
  SweepOptions one;
  one.threads = 1;
  one.perf = &one_perf;
  run_sweep(*grid, one);
  SweepOptions eight;
  eight.threads = 8;
  eight.perf = &eight_perf;
  run_sweep(*grid, eight);
  EXPECT_EQ(one_perf.counters, eight_perf.counters);
  EXPECT_GT(one_perf.counters.messages_sent, 0u);
  EXPECT_GT(one_perf.counters.cd_advice_calls, 0u);
}

TEST(GoldenReports, LossOnTopologyGridIsThreadInvariant) {
  // The unification's NEW composition -- consensus with loss != none over
  // non-clique topologies -- must satisfy the same determinism contract as
  // every legacy grid: byte-identical reports at any thread count.
  auto grid = SweepGrid::named("mhloss");
  ASSERT_TRUE(grid.has_value());
  ASSERT_FALSE(grid->validate().has_value());

  SweepOptions one;
  one.threads = 1;
  const auto baseline =
      aggregates_to_json(*grid, aggregate(*grid, run_sweep(*grid, one)));
  SweepOptions eight;
  eight.threads = 8;
  obs::SweepPerf perf;  // telemetry on for the parallel leg: same bytes
  eight.perf = &perf;
  const auto parallel =
      aggregates_to_json(*grid, aggregate(*grid, run_sweep(*grid, eight)));
  EXPECT_EQ(baseline, parallel);

  // And it must be a real loss-on-topology grid: every cell non-singlehop,
  // every cell loss != none, with at least some consensus progress
  // somewhere (the composition runs, it does not just fail to execute).
  const auto cells = aggregate(*grid, run_sweep(*grid, eight));
  std::size_t solved = 0;
  for (const CellAggregate& cell : cells) {
    EXPECT_NE(cell.spec.topology, TopologyKind::kSingleHop);
    EXPECT_NE(cell.spec.loss, LossKind::kNoLoss);
    EXPECT_EQ(cell.runs, grid->seeds_per_cell);
    solved += cell.solved;
  }
  EXPECT_GT(solved, 0u);
}

}  // namespace
}  // namespace ccd::exp
