// Work-stealing dispatcher: turns a grid's cell list into a dynamic queue
// served by N worker processes, so fleet wall-clock tracks TOTAL work
// instead of the worst static shard.
//
// The scheduler composes machinery that already exists instead of growing
// a second execution path:
//
//   * assignments are shard specs like any other (ShardPlanner::plan_cells
//     names each batch's cells), so workers are plain `ccd_sweep
//     --shard-file SPEC --checkpoint FILE` invocations whose one output is
//     the checkpoint stream -- a cell marker per finished cell;
//   * one CheckpointReader per assignment reads that stream as it grows,
//     each poll tick parsing only the lines appended since the last.  Its
//     heartbeat is the liveness signal: a batch whose heartbeat goes stale
//     past stale_after has its unfinished cells re-queued (STOLEN) while
//     the laggard keeps running -- first completed copy wins.  This is the
//     stack's only staleness signal;
//   * when a worker exits, whatever its exit code, the cells its stream
//     holds are adopted and the rest re-queued.  A nonzero exit or a
//     stream that is unusable or short of the batch counts as a restart.
//     Adoption waits for the exit so a winning worker's perf sidecar is
//     written before the merge reads it;
//   * the cell -> winning-assignment ledger prunes every duplicate before
//     merging, so merge_shard_reports' exactly-once validation holds and
//     the merged report is byte-identical to a single-process run --
//     seeding is hash(grid_seed, run_index), independent of which worker
//     executes a cell.
//
// Batch size decays as the queue drains (pending / 2N, floor 1): coarse
// batches amortize process spawns early, fine batches keep the tail
// stealable where it matters.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/dispatch/worker_transport.hpp"
#include "exp/shard/shard_report.hpp"
#include "obs/perf_sidecar.hpp"

namespace ccd::exp {

struct DispatchOptions {
  std::size_t workers = 4;
  /// Heartbeat age (seconds) past which a batch's unfinished cells are
  /// stolen.  Age is measured from the newest checkpoint ts_ms (or the
  /// spawn time before the worker's first write).
  double stale_after_secs = 30.0;
  std::uint64_t poll_ms = 50;
  /// A cell assigned this many times without completing aborts the
  /// dispatch (deterministic failure instead of an infinite requeue loop
  /// when e.g. the worker binary crashes on that cell every time).
  std::size_t max_assignments_per_cell = 10;
  /// Directory for spec/checkpoint/perf files; must exist.
  std::string work_dir;
  /// Worker binary (a ccd_sweep build).
  std::string worker_bin;
  /// Extra argv appended to every worker invocation (e.g. "--threads",
  /// "2").
  std::vector<std::string> worker_args;
  /// Per-slot extra environment (KEY=VALUE), indexed by slot; slots past
  /// the vector get none.  Every worker additionally gets
  /// CCD_DISPATCH_WORKER=<slot>.
  std::vector<std::vector<std::string>> worker_env;
  /// Ask workers for per-batch perf sidecars and merge them (pruned to
  /// ledger winners) into DispatchResult::perf.
  bool worker_perf = false;
  /// Process launcher; nullptr = a LocalProcessTransport owned by the
  /// call.  Tests inject failure-wrapping transports here.
  WorkerTransport* transport = nullptr;
  /// Called once per poll iteration with the runs of completed cells and
  /// the grid's total runs -- SweepOptions::progress's shape.  `done`
  /// never decreases and ends at grid.num_runs().
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Which assignment won each cell -- the exactly-once ledger.
struct DispatchLedgerEntry {
  std::size_t cell = 0;
  std::size_t batch_id = 0;
  std::uint32_t slot = 0;
};

struct DispatchResult {
  /// Full-grid aggregates, validated by merge_shard_reports -- renders
  /// byte-identical to a single-process run.
  MergeResult merged;
  /// Dispatcher event totals (the perf sidecar "dispatch" section).
  obs::PerfDispatch stats;
  /// Merged worker sidecars with stats.* stamped in; only when
  /// options.worker_perf.
  std::optional<obs::PerfSidecar> perf;
  /// One entry per cell, ascending.
  std::vector<DispatchLedgerEntry> ledger;
};

/// Run the full dispatch: queue -> workers -> steal/requeue -> merge.
/// nullopt with a keyed *error on spawn failure, a cell exceeding
/// max_assignments_per_cell, or unusable worker output.
std::optional<DispatchResult> run_dispatch(const SweepGrid& grid,
                                           const DispatchOptions& options,
                                           std::string* error = nullptr);

/// Decaying batch size: max(1, pending / (2 * workers)).  Exposed for the
/// unit test that pins the decay shape.
std::size_t next_batch_size(std::size_t pending, std::size_t workers);

/// Ledger JSON ("ccd-dispatch-ledger-v1"): cell -> winning assignment.
std::string ledger_to_json(const std::vector<DispatchLedgerEntry>& ledger);

}  // namespace ccd::exp
