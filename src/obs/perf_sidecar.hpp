// Perf sidecar: the JSON artifact that carries everything telemetry
// measured about a sweep -- per-cell run-time percentiles, engine counter
// totals, per-worker utilization and queue-drain stats -- WITHOUT touching
// the report.  A report plus its sidecar is the full story of a run; the
// report alone is byte-identical to a telemetry-off run.
//
// Sidecars shard and merge exactly like reports do: a worker's sidecar
// names its shard identity and grid fingerprint, cells are partitioned so
// a merge is a disjoint union, and counter totals -- being deterministic
// per run -- sum to exactly the single-process totals.  Only the timing
// NUMBERS differ run to run (wall time is physics, not arithmetic); the
// timing SCHEMA is identical everywhere.
//
// Schema ("ccd-perf-sidecar-v1"):
//   {"format":"ccd-perf-sidecar-v1",
//    "grid_fingerprint":"<16 hex>",
//    "runs":N,
//    "stats_bytes_retained":B,   // aggregator Stats footprint; optional on
//                                // parse (older sidecars predate it)
//    "counters":{"rounds":..,...},            // EngineCounters totals
//    "shards":[{"shard_index":i,"shard_count":K,"wall_ns":..,"drain_ns":..,
//               "threads":T,"runs":N,
//               "workers":[{"worker":w,"busy_ns":..,"runs":..},...]},...],
//    "cells":[{"cell":c,"runs":S,"total_ns":..,"min_ns":..,"max_ns":..,
//              "p50_ns":..,"p95_ns":..},...],
//    "dispatch":{...}}          // dispatcher event totals; optional on
//                               // parse (only dispatcher-merged sidecars
//                               // carry it)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace ccd::obs {

/// One run's span on one worker, relative to the sweep's epoch.  The raw
/// material for the per-cell timing stats and the Chrome trace export.
struct RunSpan {
  std::uint64_t run_index = 0;
  std::uint64_t cell_index = 0;
  std::uint32_t worker = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Everything the sweep runner measures about one pool execution.  Filled
/// only when SweepOptions::perf points here; a null pointer keeps the
/// pool free of span bookkeeping.
struct SweepPerf {
  std::uint64_t wall_ns = 0;   ///< pool start -> last worker joined
  std::uint32_t threads = 0;   ///< workers actually spawned
  std::uint64_t runs = 0;
  /// Straggler tail: wall time elapsed after the EARLIEST worker finished
  /// its last run (the window where the static partition wastes cores --
  /// the number the future work-stealing dispatcher exists to shrink).
  std::uint64_t drain_ns = 0;
  /// Bytes the aggregator's Stats retain after folding every run
  /// (histogram bins vs raw sample buffers; see exp::stats_bytes_retained).
  /// Deterministic, so it survives merges exactly.  The CLI fills it after
  /// aggregation; 0 when the caller never measured it.
  std::uint64_t stats_bytes_retained = 0;
  EngineCounters counters;     ///< deterministic totals over all runs
  std::vector<RunSpan> spans;  ///< one per run, in slot (run) order
};

struct PerfWorker {
  std::uint32_t worker = 0;
  std::uint64_t busy_ns = 0;  ///< sum of this worker's run spans
  std::uint64_t runs = 0;
};

/// One process's execution of (part of) the grid.  A single-process sweep
/// is shard 0 of 1; merged sidecars keep every shard's entry so per-shard
/// wall time stays reportable after the merge.
struct PerfShardExec {
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::uint64_t wall_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint32_t threads = 0;
  std::uint64_t runs = 0;
  std::vector<PerfWorker> workers;
};

/// Per-cell run-time distribution (nearest-rank percentiles over the
/// cell's seeds).
struct PerfCell {
  std::uint64_t cell_index = 0;
  std::uint64_t runs = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
};

/// One dispatcher worker slot's lifetime totals (a slot hosts a sequence
/// of worker processes; a restart reuses the slot).
struct PerfDispatchSlot {
  std::uint32_t slot = 0;
  std::uint64_t batches = 0;        ///< assignments spawned on this slot
  std::uint64_t cells = 0;          ///< completed cells this slot WON
  std::uint64_t busy_ns = 0;        ///< time a process occupied the slot
  std::uint64_t busy_permille = 0;  ///< busy_ns * 1000 / dispatch wall_ns
  std::uint64_t restarts = 0;       ///< nonzero exits charged to the slot
};

/// Work-stealing dispatcher event totals (ccd_sweep --workers).  Stamped by the
/// dispatcher onto the final merged sidecar only; merge_perf_sidecars
/// DROPS dispatch sections rather than combining them -- a dispatch run
/// has exactly one dispatcher, so "merging" two would fabricate a fleet
/// that never existed.
struct PerfDispatch {
  std::uint64_t workers = 0;          ///< slots (-j)
  std::uint64_t batches = 0;          ///< assignments handed out in total
  std::uint64_t steals = 0;           ///< cells re-queued off stale owners
  std::uint64_t requeues = 0;         ///< cells re-queued off dead workers
  std::uint64_t worker_restarts = 0;  ///< processes that died (exit != 0)
  std::uint64_t duplicate_cells = 0;  ///< second copies discarded on arrival
  std::uint64_t wall_ns = 0;          ///< dispatch start -> all cells done
  std::vector<PerfDispatchSlot> slots;
};

struct PerfSidecar {
  std::uint64_t grid_fingerprint = 0;
  std::uint64_t runs = 0;
  std::uint64_t stats_bytes_retained = 0;  ///< sums exactly across merges
  EngineCounters counters;
  std::vector<PerfShardExec> shards;
  std::vector<PerfCell> cells;  ///< ascending cell index
  std::optional<PerfDispatch> dispatch;  ///< dispatcher runs only

  std::string to_json() const;
  static std::optional<PerfSidecar> from_json(const std::string& json,
                                              std::string* error = nullptr);
};

/// Reduce one pool execution's SweepPerf into a sidecar: group spans by
/// cell for the timing stats, lift the worker table, stamp the identity.
PerfSidecar build_perf_sidecar(std::uint64_t grid_fingerprint,
                               std::uint64_t shard_index,
                               std::uint64_t shard_count,
                               const SweepPerf& perf);

/// Merge K shard sidecars: counters and run counts SUM (exact -- they are
/// deterministic), cell entries union disjointly (duplicate cells are a
/// keyed error naming both owners), shard entries concatenate sorted by
/// (shard_count, shard_index).  Fingerprint mismatches are rejected.
std::optional<PerfSidecar> merge_perf_sidecars(
    const std::vector<PerfSidecar>& sidecars, std::string* error = nullptr);

}  // namespace ccd::obs
