// Trace capture: the "re-run this interesting cell" path from a sweep
// report back to fully instrumented executions (the ROADMAP item ccd_sweep
// --rerun-cell exposes).
//
// Sweeps run without round or view recording for speed; when a report
// cell looks interesting (an agreement failure, a coverage stall, a
// surprising crash count), rerun_cell() re-executes every run of
// that cell single-threaded with full ExecutionLogs.  Determinism makes
// this exact: a run's entire behaviour derives from hash(grid_seed,
// run_index), so the re-executed runs are THE runs the report aggregated,
// now with their complete Definition 11 round structure (M_r, N_r, D_r,
// W_r, decisions, crashes) captured for inspection.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "exp/world_factory.hpp"
#include "sim/execution_log.hpp"

namespace ccd::exp {

struct TracedRun {
  std::size_t run_index = 0;
  ScenarioSpec spec;
  RunSummary summary;
  MultihopSummary mh;
  SyncSummary sync;
  /// Primary phase log (consensus / flood / mis / the MIS phase of
  /// mis-then-consensus).  Absent only for round-sync, which has no
  /// round structure to record.
  std::optional<ExecutionLog> log;
  /// Phase-2 consensus log of mis-then-consensus (when phase 2 ran).
  std::optional<ExecutionLog> phase2_log;
};

/// Re-execute every run of one cell with full round and view recording
/// (RunScenarioOptions::capture_log).  Single-threaded by construction
/// (the runs of one cell are a handful; determinism does not depend on
/// scheduling anyway).
std::vector<TracedRun> rerun_cell(const SweepGrid& grid,
                                  std::size_t cell_index);

/// Full JSON dump of an ExecutionLog: per-round transmission data, advice
/// traces rendered as strings ("+" collision / "." null, "A" active / "."
/// passive), per-process views with rendered messages, decisions, crashes.
std::string execution_log_to_json(const ExecutionLog& log);

/// The --rerun-cell report: cell identity + every traced run.
std::string traced_runs_to_json(const SweepGrid& grid, std::size_t cell_index,
                                const std::vector<TracedRun>& runs);

}  // namespace ccd::exp
