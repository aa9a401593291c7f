// The dispatcher's headline guarantee, end to end: the full 432-cell
// `multihop` grid dispatched across 4 real ccd_sweep worker processes --
// with one worker SIGKILLed mid-batch and another pathologically slow so
// its cells get STOLEN -- renders JSON, CSV and distribution sidecar
// byte-identical to a single-process in-memory run.  Crashes and steals
// must be invisible in the output; they are only allowed to show up in
// the dispatch counters.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/dispatch/worker_transport.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/telemetry.hpp"

#ifndef CCD_SWEEP_BIN
#define CCD_SWEEP_BIN ""
#endif

namespace ccd::exp {
namespace {

/// LocalProcessTransport that SIGKILLs the FIRST worker it spawned once
/// `after_ms` of dispatch time has passed -- a crash injected from the
/// transport seam, so the scheduler under test sees a real dead process
/// with a real partial checkpoint, not a mock.
class KillFirstWorkerTransport : public WorkerTransport {
 public:
  explicit KillFirstWorkerTransport(std::uint64_t after_ms)
      : after_ms_(after_ms) {}

  int spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) override {
    const int handle = inner_.spawn(argv, env);
    if (victim_ == -1) victim_ = handle;
    return handle;
  }

  WorkerStatus poll(int handle) override {
    if (handle == victim_ && !killed_ &&
        timer_.elapsed_ns() > after_ms_ * 1000000ull) {
      inner_.kill_worker(handle);
      killed_ = true;
    }
    return inner_.poll(handle);
  }

  void kill_worker(int handle) override { inner_.kill_worker(handle); }

  bool killed() const { return killed_; }

 private:
  LocalProcessTransport inner_;
  obs::RunTimer timer_;
  std::uint64_t after_ms_;
  int victim_ = -1;
  bool killed_ = false;
};

struct WorkDir {
  WorkDir() {
    char tmpl[] = "disp-integ-XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made) path = made;
  }
  ~WorkDir() {
    for (int id = 0; id < 512; ++id) {
      const std::string base = path + "/batch-" + std::to_string(id);
      std::remove((base + ".spec.json").c_str());
      std::remove((base + ".ckpt.jsonl").c_str());
      std::remove((base + ".perf.json").c_str());
    }
    rmdir(path.c_str());
  }
  std::string path;
};

TEST(DispatchIntegrationTest, KilledAndStolenWorkersStillMergeByteIdentical) {
  const std::string worker_bin = CCD_SWEEP_BIN;
  ASSERT_FALSE(worker_bin.empty()) << "CCD_SWEEP_BIN not configured";

  auto grid = SweepGrid::named("multihop");
  ASSERT_TRUE(grid.has_value());
  ASSERT_EQ(grid->num_cells(), 432u);

  // Single-process reference, rendered the way ccd_sweep renders.
  SweepOptions reference_options;
  reference_options.threads = 4;
  const auto reference_cells =
      aggregate(*grid, run_sweep(*grid, reference_options));
  const std::string want_json = aggregates_to_json(*grid, reference_cells);
  const std::string want_csv = aggregates_to_csv(reference_cells);
  const std::string want_dist = cells_to_dist_json(*grid, reference_cells);

  WorkDir work;
  KillFirstWorkerTransport transport(/*after_ms=*/150);
  DispatchOptions options;
  options.workers = 4;
  options.stale_after_secs = 0.3;
  options.poll_ms = 20;
  options.work_dir = work.path;
  options.worker_bin = worker_bin;
  options.worker_args = {"--threads", "1"};
  // Slot 0: 3ms per run, so the 150ms kill lands mid-batch with a partial
  // checkpoint to adopt.  Slot 1: 200ms per run -- its first heartbeat
  // marker would arrive at ~600ms, far past stale_after, forcing a steal
  // while the laggard keeps running.
  options.worker_env = {{"CCD_SWEEP_TEST_RUN_DELAY_MS=3"},
                        {"CCD_SWEEP_TEST_RUN_DELAY_MS=200"}};
  options.worker_perf = true;
  options.transport = &transport;
  // Progress reports runs of completed cells: monotone even across the
  // kill and the steal, ending at the grid's run count.
  std::vector<std::size_t> progress_done;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, grid->num_runs());
    progress_done.push_back(done);
  };

  std::string error;
  auto result = run_dispatch(*grid, options, &error);
  ASSERT_TRUE(result.has_value()) << error;

  // The injected failures really happened...
  EXPECT_TRUE(transport.killed());
  EXPECT_GE(result->stats.worker_restarts, 1u);
  EXPECT_GE(result->stats.steals, 1u);
  EXPECT_EQ(result->stats.workers, 4u);
  ASSERT_FALSE(progress_done.empty());
  for (std::size_t i = 1; i < progress_done.size(); ++i) {
    EXPECT_LE(progress_done[i - 1], progress_done[i]) << "call " << i;
  }
  EXPECT_EQ(progress_done.back(), grid->num_runs());

  // ...and left no trace in the merged output.
  EXPECT_EQ(aggregates_to_json(result->merged.grid, result->merged.cells),
            want_json);
  EXPECT_EQ(aggregates_to_csv(result->merged.cells), want_csv);
  EXPECT_EQ(cells_to_dist_json(result->merged.grid, result->merged.cells),
            want_dist);

  // Exactly-once ledger: every cell present, ascending, each claimed by a
  // real slot.
  ASSERT_EQ(result->ledger.size(), 432u);
  for (std::size_t c = 0; c < result->ledger.size(); ++c) {
    EXPECT_EQ(result->ledger[c].cell, c);
    EXPECT_LT(result->ledger[c].slot, 4u);
  }

  // Worker perf sidecars survived the pruning and carry dispatch stats.
  ASSERT_TRUE(result->perf.has_value());
  ASSERT_TRUE(result->perf->dispatch.has_value());
  EXPECT_EQ(result->perf->dispatch->workers, 4u);
  EXPECT_EQ(result->perf->dispatch->slots.size(), 4u);
}

}  // namespace
}  // namespace ccd::exp
