// Dispatcher unit contracts: batch-size decay, explicit-cell shard specs
// (the assignment format), ledger JSON, the keyed run_dispatch failure
// modes that need no real worker, and the LocalProcessTransport
// spawn/poll/kill lifecycle the scheduler is built on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/dispatch/worker_transport.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2};
  grid.ns = {2, 4, 5};
  grid.value_spaces = {4, 16};  // 12 cells
  grid.base.cst_target = 3;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 99;
  return grid;
}

/// Scratch directory for dispatch runs; removes known batch files on exit.
struct WorkDir {
  WorkDir() {
    char tmpl[] = "disp-unit-XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made) path = made;
  }
  ~WorkDir() {
    for (int id = 0; id < 128; ++id) {
      const std::string base = path + "/batch-" + std::to_string(id);
      std::remove((base + ".spec.json").c_str());
      std::remove((base + ".report.json").c_str());
      std::remove((base + ".ckpt.jsonl").c_str());
      std::remove((base + ".perf.json").c_str());
    }
    rmdir(path.c_str());
  }
  std::string path;
};

/// Poll until the worker exits, with a hard cap so a broken transport
/// fails the test instead of hanging ctest.
WorkerStatus wait_exit(WorkerTransport& transport, int handle) {
  for (int i = 0; i < 5000; ++i) {
    const WorkerStatus status = transport.poll(handle);
    if (!status.running) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return WorkerStatus{};
}

TEST(DispatchTest, BatchSizeDecaysToSingleCellTail) {
  // pending / 2N, floor 1: coarse while the queue is deep, single cells
  // at the tail where stealing granularity matters.
  EXPECT_EQ(next_batch_size(432, 4), 54u);
  EXPECT_EQ(next_batch_size(54, 4), 6u);
  EXPECT_EQ(next_batch_size(48, 4), 6u);
  EXPECT_EQ(next_batch_size(8, 4), 1u);
  EXPECT_EQ(next_batch_size(7, 4), 1u);
  EXPECT_EQ(next_batch_size(1, 4), 1u);
  EXPECT_EQ(next_batch_size(1000, 1), 500u);
  EXPECT_EQ(next_batch_size(5, 0), 2u);  // workers clamped to 1, not / 0

  // The decay never hands out zero and never exceeds the queue's own
  // half-share, so N workers always leave work for the other N - 1.
  for (std::size_t pending = 1; pending <= 200; ++pending) {
    const std::size_t size = next_batch_size(pending, 4);
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, std::max<std::size_t>(1, pending / 8));
  }
}

TEST(DispatchTest, LedgerJsonPinsTheFormat) {
  std::vector<DispatchLedgerEntry> ledger = {{0, 2, 1}, {1, 0, 3}};
  EXPECT_EQ(ledger_to_json(ledger),
            "{\"format\":\"ccd-dispatch-ledger-v1\",\"cells\":["
            "{\"cell\":0,\"batch\":2,\"slot\":1},"
            "{\"cell\":1,\"batch\":0,\"slot\":3}]}");
  EXPECT_EQ(ledger_to_json({}),
            "{\"format\":\"ccd-dispatch-ledger-v1\",\"cells\":[]}");
}

TEST(DispatchTest, ExplicitSpecOwnsExactlyItsCellsThroughJson) {
  const SweepGrid grid = small_grid();
  const ShardSpec spec = ShardPlanner::plan_cells(grid, {0, 3, 5, 11}, 7);
  EXPECT_EQ(spec.shard_index, 7u);  // batch id rides in shard_index
  EXPECT_EQ(spec.cells, (std::vector<std::size_t>{0, 3, 5, 11}));
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(spec.owns_cell(c), c == 0 || c == 3 || c == 5 || c == 11);
  }

  std::string error;
  auto parsed = ShardSpec::from_json(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->shard_index, 7u);
  EXPECT_EQ(parsed->cells, spec.cells);
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(DispatchTest, MalformedExplicitSpecsAreRejected) {
  const SweepGrid grid = small_grid();
  const ShardSpec spec = ShardPlanner::plan_cells(grid, {0, 3, 5}, 0);
  std::string error;

  // Non-ascending cell list.
  std::string json = spec.to_json();
  const auto at = json.find("[0,3,5]");
  ASSERT_NE(at, std::string::npos);
  std::string swapped = json;
  swapped.replace(at, 7, "[3,0,5]");
  EXPECT_FALSE(ShardSpec::from_json(swapped, &error).has_value());
  EXPECT_NE(error.find("ascending"), std::string::npos) << error;

  // Cell index out of the grid's range.
  std::string out_of_range = json;
  out_of_range.replace(at, 7, "[0,3,12]");
  EXPECT_FALSE(ShardSpec::from_json(out_of_range, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // No cell list: ownership is the list, so this is a keyed error.
  std::string missing = json;
  const auto cells_at = missing.find(",\"cells\":[0,3,5]");
  ASSERT_NE(cells_at, std::string::npos);
  missing.erase(cells_at, std::strlen(",\"cells\":[0,3,5]"));
  EXPECT_FALSE(ShardSpec::from_json(missing, &error).has_value());
  EXPECT_NE(error.find("missing key 'cells'"), std::string::npos) << error;
}

TEST(DispatchTest, ExplicitShardsRunAndMergeToTheExactFullReport) {
  // Interleaved explicit batches (the dispatcher's assignment shape) must
  // merge to the same bytes as one full-grid run -- the determinism fact
  // that makes work stealing free.
  const SweepGrid grid = small_grid();
  std::vector<std::size_t> evens, odds;
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    (c % 2 == 0 ? evens : odds).push_back(c);
  }
  std::vector<ShardReport> reports;
  std::size_t batch_id = 0;
  for (const auto& cells : {evens, odds}) {
    const ShardSpec spec = ShardPlanner::plan_cells(grid, cells, batch_id++);
    std::string error;
    auto parsed = ShardSpec::from_json(spec.to_json(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    auto report = run_shard(*parsed, {}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    auto round_tripped = ShardReport::from_json(report->to_json(), &error);
    ASSERT_TRUE(round_tripped.has_value()) << error;
    reports.push_back(std::move(*round_tripped));
  }
  std::string error;
  auto merged = merge_shard_reports(reports, &error);
  ASSERT_TRUE(merged.has_value()) << error;

  SweepOptions options;
  options.threads = 1;
  const auto cells = aggregate(grid, run_sweep(grid, options));
  EXPECT_EQ(aggregates_to_json(merged->grid, merged->cells),
            aggregates_to_json(grid, cells));
  EXPECT_EQ(aggregates_to_csv(merged->cells), aggregates_to_csv(cells));
}

TEST(DispatchTest, RunDispatchRejectsUnusableSetups) {
  std::string error;

  SweepGrid no_runs = small_grid();
  no_runs.seeds_per_cell = 0;
  DispatchOptions options;
  options.worker_bin = "/bin/true";
  options.work_dir = ".";
  EXPECT_FALSE(run_dispatch(no_runs, options, &error).has_value());
  EXPECT_NE(error.find("seeds_per_cell 0"), std::string::npos) << error;

  const SweepGrid grid = small_grid();
  DispatchOptions no_workers = options;
  no_workers.workers = 0;
  EXPECT_FALSE(run_dispatch(grid, no_workers, &error).has_value());
  EXPECT_NE(error.find("at least one worker"), std::string::npos) << error;

  DispatchOptions no_bin = options;
  no_bin.worker_bin.clear();
  EXPECT_FALSE(run_dispatch(grid, no_bin, &error).has_value());
  EXPECT_NE(error.find("worker binary"), std::string::npos) << error;

  DispatchOptions no_dir = options;
  no_dir.work_dir.clear();
  EXPECT_FALSE(run_dispatch(grid, no_dir, &error).has_value());
  EXPECT_NE(error.find("work directory"), std::string::npos) << error;
}

TEST(DispatchTest, DeterministicallyCrashingWorkerHitsTheAssignmentCap) {
  // A binary that can never run (exec fails -> exit 127) crashes every
  // batch; the requeue loop must end in the keyed max-assignments error,
  // not spin forever.
  WorkDir work;
  DispatchOptions options;
  options.workers = 2;
  options.poll_ms = 1;
  options.max_assignments_per_cell = 2;
  options.worker_bin = work.path + "/no-such-binary";
  options.work_dir = work.path;
  std::string error;
  EXPECT_FALSE(run_dispatch(small_grid(), options, &error).has_value());
  EXPECT_NE(error.find("assigned 2 times"), std::string::npos) << error;
}

TEST(LocalProcessTransportTest, ExitCodesAndEnvPlumbThrough) {
  LocalProcessTransport transport;
  const int ok = transport.spawn({"/bin/sh", "-c", "exit 0"}, {});
  const int fail = transport.spawn({"/bin/sh", "-c", "exit 3"}, {});
  const int env = transport.spawn(
      {"/bin/sh", "-c", "test \"$CCD_TEST_VALUE\" = yes"},
      {"CCD_TEST_VALUE=yes"});
  ASSERT_GE(ok, 0);
  ASSERT_GE(fail, 0);
  ASSERT_GE(env, 0);
  EXPECT_EQ(wait_exit(transport, ok).exit_code, 0);
  EXPECT_EQ(wait_exit(transport, fail).exit_code, 3);
  EXPECT_EQ(wait_exit(transport, env).exit_code, 0);

  // Status is latched: polling a reaped handle stays stable.
  const WorkerStatus again = transport.poll(fail);
  EXPECT_FALSE(again.running);
  EXPECT_EQ(again.exit_code, 3);
}

TEST(LocalProcessTransportTest, KillReportsTheShellSignalConvention) {
  LocalProcessTransport transport;
  const int handle = transport.spawn({"/bin/sh", "-c", "sleep 30"}, {});
  ASSERT_GE(handle, 0);
  EXPECT_TRUE(transport.poll(handle).running);
  transport.kill_worker(handle);
  EXPECT_EQ(wait_exit(transport, handle).exit_code, 137);  // 128 + SIGKILL
  transport.kill_worker(handle);  // idempotent after exit
  EXPECT_EQ(transport.poll(handle).exit_code, 137);
}

TEST(LocalProcessTransportTest, SpawnFailureIsAChildExit127) {
  // fork succeeds, execve fails, the child reports 127 (the shell's
  // "command not found") -- this is the path the dispatcher's crash
  // handling turns into requeues.
  LocalProcessTransport transport;
  const int handle = transport.spawn({"/no/such/binary-xyz"}, {});
  ASSERT_GE(handle, 0);
  EXPECT_EQ(wait_exit(transport, handle).exit_code, 127);
}

}  // namespace
}  // namespace ccd::exp
