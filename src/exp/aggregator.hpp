// Aggregator: reduce per-run RunSummaries into per-cell statistics and
// render them as JSON, CSV, or an ASCII summary table.
//
// Aggregation is a serial fold over records in run-index order, so its
// output is a pure function of the grid and grid seed: byte-identical no
// matter how many threads produced the records.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep_runner.hpp"
#include "util/stats.hpp"

namespace ccd::exp {

struct CellAggregate {
  std::size_t cell_index = 0;
  ScenarioSpec spec;  ///< cell identity (seed = 0)

  std::size_t runs = 0;
  std::size_t solved = 0;  ///< verdict.solved(): safe + live
  std::size_t agreement_failures = 0;
  std::size_t validity_failures = 0;   ///< strong or uniform validity broken
  std::size_t termination_failures = 0;
  std::size_t crashed_processes = 0;   ///< total over runs

  Stats decision_round;    ///< last decision round, solved runs only
  Stats rounds_after_cst;  ///< solved runs in worlds with a finite CST
  Stats rounds_executed;   ///< all runs

  // Multihop workloads (flood / mis / mis-then-consensus).  The consensus
  // counters above stay zero for flood/mis cells; mis-then-consensus cells
  // populate BOTH groups (phase 2 is a real consensus run among the heads).
  std::size_t mh_runs = 0;         ///< records with a multihop phase
  std::size_t disconnected = 0;    ///< topology not connected (rgg only)
  std::size_t full_coverage = 0;   ///< flood runs covering every survivor
  std::size_t mis_violations = 0;  ///< independence or maximality broken

  // Crash metrics over the multihop phase (spec.fault != none).  Coverage
  // and MIS statistics above are already conditioned on survivors.
  // Genuinely real-valued metrics (fractions, ratios, microseconds) opt
  // into raw-sample retention; everything else is integer-valued and uses
  // the default sparse-histogram storage (memory bounded by distinct
  // values, not run count -- see util/stats.hpp).
  std::size_t mh_crashes_applied = 0;  ///< crashes landed, total over runs
  std::size_t phase2_skipped = 0;      ///< mis-then-consensus: no surviving
                                       ///< head, so phase 2 never ran
  Stats surviving_fraction{Stats::Mode::kRawSamples};  ///< alive at end / n

  Stats coverage_rounds;     ///< flood: rounds to full coverage (when reached)
  Stats coverage_fraction{Stats::Mode::kRawSamples};  ///< reached / n
  Stats mis_size;            ///< surviving heads elected
  Stats mis_settle_round;    ///< first all-settled round (when settled)
  Stats messages_per_node{Stats::Mode::kRawSamples};  ///< broadcasts / n
  Stats diameter;            ///< hop diameter, connected runs only

  // Round-sync workload (claim E13's substrate check).  Rendered as a
  // "sync" JSON block when present; the CSV column set is frozen (the
  // byte-stability contract of the named grids), so sync metrics live in
  // the JSON report only.
  std::size_t sync_runs = 0;
  std::size_t sync_bound_violations = 0;  ///< measured skew over the bound
  Stats sync_skew_us{Stats::Mode::kRawSamples};    ///< max pairwise skew (us)
  Stats sync_bound_us{Stats::Mode::kRawSamples};   ///< analytic bound (us)
  Stats sync_agreement{Stats::Mode::kRawSamples};  ///< agreement fraction
};

/// Fixed (name, member) table over CellAggregate's 13 Stats members, in
/// serialization order.  Shared by the shard-report codec and the dist
/// export so the two can never drift.
struct CellStatsField {
  const char* name;
  Stats CellAggregate::* member;
};
const std::vector<CellStatsField>& cell_stats_fields();

std::vector<CellAggregate> aggregate(const SweepGrid& grid,
                                     const std::vector<RunRecord>& records);

/// A zero-run aggregate carrying cell `cell_index`'s identity -- the unit
/// both aggregate() and the shard runner fold runs into.
CellAggregate empty_cell_aggregate(const SweepGrid& grid,
                                   std::size_t cell_index);

/// Fold one run record into its cell.  The deterministic-report guarantee
/// requires folding a cell's records in run-index order (the fold order is
/// observable through the floating-point sums).
void accumulate_run(CellAggregate& cell, const RunRecord& record);

/// Exact merge for shard recombination: counters add, statistics merge via
/// Stats::merge_from.  `dst` and `src` must describe the same cell; when
/// one side is empty (the only case a cell-partitioned shard plan ever
/// produces) the result is bit-identical to the populated side, and in
/// general it equals folding src's runs after dst's.
void merge_cell_aggregate(CellAggregate& dst, const CellAggregate& src);

/// Deterministic JSON report: grid metadata + one object per cell.
std::string aggregates_to_json(const SweepGrid& grid,
                               const std::vector<CellAggregate>& cells);

/// Deterministic bytes retained by all Stats across `cells` (histogram
/// bins vs raw sample buffers).  This is the perf sidecar's
/// stats_bytes_retained counter: at 1e6 runs/cell it stays bounded by the
/// number of distinct metric values, which is the memory-wall win.
std::uint64_t stats_bytes_retained(const std::vector<CellAggregate>& cells);

/// Full per-cell distribution export ("ccd-dist-v1"): every non-empty
/// Stats member serialized losslessly (histogram bins or raw samples) --
/// the distribution detail the five-number summary report discards.
/// `cells` may be a shard subset; each entry carries its cell index.
std::string cells_to_dist_json(const SweepGrid& grid,
                               const std::vector<CellAggregate>& cells);

/// Flat CSV, one row per cell; header first.
std::string aggregates_to_csv(const std::vector<CellAggregate>& cells);

/// Human-oriented summary (AsciiTable) of the worst cells plus totals.
void print_summary(std::ostream& os, const SweepGrid& grid,
                   const std::vector<CellAggregate>& cells);

}  // namespace ccd::exp
