// SweepRunner: execute every run of a SweepGrid across a pool of worker
// threads.
//
// Scheduling is a shared atomic work counter (each worker claims the next
// unclaimed run index), which is work-stealing in effect: fast runs drain
// more indices, a slow cell never stalls the pool.  Determinism does not
// depend on scheduling at all -- each run's World derives every RNG stream
// from hash(grid_seed, run_index), and results land in a pre-sized vector
// slot owned by the run index -- so the full result vector is bit-identical
// at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "consensus/harness.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/world_factory.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp {

/// Telemetry measured ABOUT a run -- engine tallies and wall time.  Pure
/// observation: nothing here reaches the Aggregator or any report writer,
/// so report bytes are identical whether or not anyone reads it.
struct RunPerf {
  obs::EngineCounters engine;  ///< deterministic per spec
  std::uint64_t wall_ns = 0;   ///< run_one wall time (steady clock)
  std::uint32_t worker = 0;    ///< pool worker that executed the run
};

struct RunRecord {
  std::size_t run_index = 0;
  std::size_t cell_index = 0;
  ScenarioSpec spec;
  /// Consensus verdict.  Populated for consensus workloads and for the
  /// phase-2 consensus of mis-then-consensus; default otherwise.
  RunSummary summary;
  /// Multihop metrics; mh.ran is false for single-hop consensus and
  /// round-sync workloads.
  MultihopSummary mh;
  /// Round-sync metrics; sync.ran is false for every other workload.
  SyncSummary sync;
  /// Observation sidecar for this run; excluded from all report bytes.
  RunPerf perf;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 1;
  /// Batch eligible runs into lane blocks: workers claim BLOCKS of
  /// consecutive run indices within one cell (up to 64 seeds in lockstep
  /// on one LaneEngine) instead of single runs.  Records are
  /// byte-identical either way -- LaneExecutor::run_block(specs)[k]
  /// depends on specs[k] alone -- so this is purely a throughput switch
  /// (`--no-lanes` in ccd_sweep makes every block one run).  Round-sync
  /// specs and non-consecutive index sets (strided shards) are 1-run
  /// blocks either way.
  bool lanes = true;
  /// Invoked after each completed run with the number finished so far.
  /// Called from worker threads; must be thread-safe.  May be empty.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Invoked after each completed run with its record, before `progress`.
  /// Called from worker threads; must be thread-safe.  May be empty.  The
  /// shard runner uses this for per-cell checkpoint markers.
  std::function<void(const RunRecord& record)> on_record;
  /// When non-null, the pool fills it with per-run spans (slot order),
  /// per-worker finish times, wall/drain time, and summed engine counters.
  /// Null keeps the pool free of span bookkeeping.  Never read by any
  /// report writer -- reports are byte-identical either way.
  obs::SweepPerf* perf = nullptr;
};

/// Run the whole grid; returns one record per run, ordered by run_index.
std::vector<RunRecord> run_sweep(const SweepGrid& grid,
                                 const SweepOptions& options = {});

/// Run an explicit subset of the grid's run indices (the shard worker
/// path).  Records are returned in the order of `run_indices`; each run is
/// seeded by its GLOBAL run index, so a shard executes bit-identically to
/// the same indices inside a full-grid run.
std::vector<RunRecord> run_subset(const SweepGrid& grid,
                                  const std::vector<std::size_t>& run_indices,
                                  const SweepOptions& options = {});

/// Execute a single run of the grid (what each worker does per 1-run
/// block).
RunRecord run_one(const SweepGrid& grid, std::size_t run_index);

}  // namespace ccd::exp
