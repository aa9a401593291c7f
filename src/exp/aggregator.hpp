// Aggregator: reduce per-run RunSummaries into per-cell statistics and
// render them as JSON, CSV, or an ASCII summary table.
//
// Aggregation is a serial fold over records in run-index order, so its
// output is a pure function of the grid and grid seed: byte-identical no
// matter how many threads produced the records.
#pragma once

#include <cstdint>
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

/// The block of a report cell a member renders in: the cell's top level,
/// its "mh" block or its "sync" block.
enum class CellGroup : std::uint8_t { kTop, kMh, kSync };

/// One CellAggregate member: `key` in shard reports and checkpoints (and,
/// for a statistic, the dist export), `report_key` inside its group's
/// block of the JSON report.  A member flows through those formats and the
/// merge by having one entry in kCellCounterFields or kCellStatsFields,
/// which list the 14 counters and 13 statistics in serialization order.
template <typename T>
struct CellField {
  const char* key;
  T CellAggregate::* member;
  CellGroup group;
  const char* report_key = key;
};
using CellCounterField = CellField<std::size_t>;
using CellStatsField = CellField<Stats>;

inline constexpr CellCounterField kCellCounterFields[] = {
    {"runs", &CellAggregate::runs, CellGroup::kTop},
    {"solved", &CellAggregate::solved, CellGroup::kTop},
    {"agreement_failures", &CellAggregate::agreement_failures,
     CellGroup::kTop},
    {"validity_failures", &CellAggregate::validity_failures, CellGroup::kTop},
    {"termination_failures", &CellAggregate::termination_failures,
     CellGroup::kTop},
    {"crashed_processes", &CellAggregate::crashed_processes, CellGroup::kTop},
    {"mh_runs", &CellAggregate::mh_runs, CellGroup::kMh, "runs"},
    {"disconnected", &CellAggregate::disconnected, CellGroup::kMh},
    {"full_coverage", &CellAggregate::full_coverage, CellGroup::kMh},
    {"mis_violations", &CellAggregate::mis_violations, CellGroup::kMh},
    {"mh_crashes_applied", &CellAggregate::mh_crashes_applied, CellGroup::kMh,
     "crashes_applied"},
    {"phase2_skipped", &CellAggregate::phase2_skipped, CellGroup::kMh},
    {"sync_runs", &CellAggregate::sync_runs, CellGroup::kSync, "runs"},
    {"sync_bound_violations", &CellAggregate::sync_bound_violations,
     CellGroup::kSync, "bound_violations"},
};

inline constexpr CellStatsField kCellStatsFields[] = {
    {"decision_round", &CellAggregate::decision_round, CellGroup::kTop},
    {"rounds_after_cst", &CellAggregate::rounds_after_cst, CellGroup::kTop},
    {"rounds_executed", &CellAggregate::rounds_executed, CellGroup::kTop},
    {"surviving_fraction", &CellAggregate::surviving_fraction,
     CellGroup::kMh},
    {"coverage_rounds", &CellAggregate::coverage_rounds, CellGroup::kMh},
    {"coverage_fraction", &CellAggregate::coverage_fraction, CellGroup::kMh},
    {"mis_size", &CellAggregate::mis_size, CellGroup::kMh},
    {"mis_settle_round", &CellAggregate::mis_settle_round, CellGroup::kMh},
    {"messages_per_node", &CellAggregate::messages_per_node, CellGroup::kMh},
    {"diameter", &CellAggregate::diameter, CellGroup::kMh},
    {"sync_skew_us", &CellAggregate::sync_skew_us, CellGroup::kSync,
     "skew_us"},
    {"sync_bound_us", &CellAggregate::sync_bound_us, CellGroup::kSync,
     "bound_us"},
    {"sync_agreement", &CellAggregate::sync_agreement, CellGroup::kSync,
     "agreement"},
};

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
