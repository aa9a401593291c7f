// Claims: the paper's results as executable, gated predicates.
//
// experiments() is the claims table.  Each experiment E1-E15 (E12 is round
// throughput, which ccd_bench measures and nothing claims) runs the setup its
// paper claim calls for -- SweepGrids on the exp/ engine, or direct runs
// where the measured quantity sits below the spec surface (lower-bound
// compositions, detector envelopes, bare contention managers) -- prints
// its paper-style tables, and returns one verdict per claim.  Every
// claim's predicate is a plain function declared below, over RunRecords or
// direct-run rows, so it can be called on its own.
//
// A predicate reports the FIRST violation: the lowest run index of a
// failing run (grid predicates, which also return that run's spec so
// WorldFactory::run_scenario can re-execute it) or the lowest failing row
// (direct predicates).  An unsolved run or seed always counts as a
// violation of a bound; nothing is silently dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep_runner.hpp"
#include "lowerbound/alpha_execution.hpp"
#include "lowerbound/broadcast_sequence.hpp"
#include "lowerbound/composition.hpp"
#include "util/stats.hpp"

namespace ccd::exp {

/// Outcome of one predicate.
struct Verdict {
  bool pass = true;
  std::size_t at = 0;  ///< first violating run index (or row); !pass only
  std::string why;     ///< what the violating run or row showed
  /// Grid predicates: the violating run's spec (seed included).
  std::optional<ScenarioSpec> spec;
};

/// One row of the claims table, as evaluated.
struct Claim {
  const char* reference;  ///< paper reference: theorem, lemma or section
  const char* statement;  ///< what the paper (or the extension) claims
  Verdict verdict;
};

/// One paper experiment: run its setup, print its tables to `os`, and
/// return its claims.  Tables are deterministic at any thread count.
struct Experiment {
  const char* id;  ///< "E1" ... "E15"
  std::vector<Claim> (*run)(std::ostream& os);
};
const std::vector<Experiment>& experiments();

// ---- predicate kinds --------------------------------------------------------

/// Bound over a cell: the first run, in run-index order, for which `why`
/// returns a non-empty message fails the predicate.
template <class Why>
Verdict every_run(std::span<const RunRecord> runs, Why why) {
  for (const RunRecord& r : runs) {
    std::string w = why(r);
    if (!w.empty()) return {false, r.run_index, std::move(w), r.spec};
  }
  return {};
}

/// Dichotomy over direct rows: the first row for which `why` returns a
/// non-empty message fails the predicate.
template <class Row, class Why>
Verdict every_row(const std::vector<Row>& rows, Why why) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string w = why(rows[i]);
    if (!w.empty()) return {false, i, std::move(w), std::nullopt};
  }
  return {};
}

/// Comparison across cells: the mean of `metric` over `lo` is below its
/// mean over `hi` (or equal, when !strict).  A failure points at lo's
/// worst run -- the one pulling its mean up.  Metrics map unsolved or
/// uncovered runs to kNeverRound.
Verdict mean_below(std::span<const RunRecord> lo, std::span<const RunRecord> hi,
                   double (*metric)(const RunRecord&), bool strict = true);

// ---- named predicates, one per claim ---------------------------------------

using CompositionRun = std::pair<CompositionConfig, CompositionOutcome>;

/// E1 / Figure 1: one ordered pair of detector classes, X in Y.
struct LatticeRow {
  std::string pair;  ///< "X in Y"
  bool predicted = false;
  bool empirical = false;
};
/// Figure 1: predicted containment equals empirical containment.
Verdict lattice_matches(const std::vector<LatticeRow>& rows);
/// Lemma 1: NoCD is a subclass of NoACC, predicted and observed.
Verdict lemma1_nocd_in_noacc(const std::vector<LatticeRow>& rows);

/// Theorem 1: every run solves consensus by CST + 2.
Verdict theorem1_bound(std::span<const RunRecord> runs);
/// Theorem 2: every run solves consensus by CST + 2(ceil(lg|V|) + 1).
Verdict theorem2_bound(std::span<const RunRecord> runs);

/// Section 7.3: with |V| fixed, leader mode's mean decision round grows
/// with |I| (one span per |I|, ascending); every run solved.
Verdict ids_cost_grows(const std::vector<std::span<const RunRecord>>& by_ids);
/// Section 7.3: with |I| < |V|, Algorithm 4 beats Algorithm 2 on average;
/// every run solved.
Verdict ids_beat_values(std::span<const RunRecord> alg4,
                        std::span<const RunRecord> alg2);
/// Corollary 3: with |I| >= |V|, Algorithm 4 is no faster than
/// Algorithm 2; every run solved.
Verdict ids_buy_nothing(std::span<const RunRecord> alg4,
                        std::span<const RunRecord> alg2);

/// Theorem 3, failure-free: every run decides by round 8 * lg|V|.
Verdict theorem3_failure_free(std::span<const RunRecord> runs);
/// Theorem 3: every run decides within 8 * lg|V| rounds of its last
/// scheduled crash.
Verdict theorem3_after_crash(std::span<const RunRecord> runs);
/// Section 7.4: folding the recurse round costs 3 rounds per tree move
/// instead of 4 -- rows are (plain, folded) runs, both must decide.
Verdict folded_three_quarters(
    const std::vector<std::pair<RunSummary, RunSummary>>& rows);

/// Theorems 4 & 5: NaiveNoCd violates agreement in every composition row;
/// no safe algorithm decides under NoCD / NoACC.  Rows are numbered
/// naive first, then safe.
Verdict nocd_dichotomy(const std::vector<CompositionRun>& naive,
                       const std::vector<RunSummary>& safe);

/// Lemmas 5 & 23: a half-AC partition splits Algorithm 1's decision; a
/// maj-AC detector keeps agreement.
Verdict half_ac_splits(const std::vector<CompositionRun>& rows);
/// Lemma 21 / Theorem 9: every row (one per prefix length k) holds a
/// colliding pair.
Verdict collisions_found(
    const std::vector<std::optional<CollidingPair>>& rows);
/// Theorem 6: under the half-AC partition Algorithm 2 decides, in
/// agreement, only after the heal at round k.
Verdict decides_after_heal(const std::vector<CompositionRun>& rows);

/// Theorem 3: every seed solves consensus.
Verdict all_solved(const std::vector<RunSummary>& rows);
/// Theorem 8: some seed violates agreement or validity.
Verdict some_unsafe(const std::vector<RunSummary>& rows);
/// Theorem 8: a never-healing partition stalls the algorithm safely:
/// no termination, no disagreement.
Verdict stalls_safely(const std::vector<CompositionRun>& rows);

/// Theorem 9 and Theorem 3: Algorithm 3's beta executions decide between
/// the lg|V| - 1 floor and the 8 * lg|V| ceiling.  Rows are (|V|, run).
Verdict between_floor_and_ceiling(
    const std::vector<std::pair<std::uint64_t, BetaResult>>& rows);

/// E10: worst rounds after stabilization over a column's seeds.
struct Worst {
  double rounds = -1.0;  ///< -1 when no seed solved
  std::size_t unsolved = 0;
};
struct GapRow {
  std::uint64_t num_values = 0;
  Worst alg1, alg2, alg4, alg3;
};
/// Section 1.5's complexity landscape, every seed solved: Algorithm 1
/// within 2 rounds, Algorithm 2 above it but within 2(lg|V| + 1),
/// Algorithm 4 flat once |V| > `id_space`, Algorithm 3 within 8 * lg|V|.
Verdict complexity_gap(const std::vector<GapRow>& rows, std::uint64_t id_space);

/// Section 1.3: every seed's backoff manager locks in (one Stats of
/// lock-in rounds per row).
Verdict all_lock_in(const std::vector<Stats>& rows, std::size_t seeds);
/// Section 1.3: no run violates agreement or validity.
Verdict always_safe(std::span<const RunRecord> runs);

/// E13: every run's measured skew stays within the analytic bound.
Verdict sync_within_bound(std::span<const RunRecord> runs);
/// Section 1.2: every run whose rounds exceed twice the skew bound keeps
/// full guarded round agreement.
Verdict long_rounds_agree(std::span<const RunRecord> runs);

/// E14: every line run is fully covered and mean coverage rounds grow
/// with the line's length (one span per n, ascending).
Verdict lines_covered(const std::vector<std::span<const RunRecord>>& by_n);
/// E14: CD-backoff covers every run and floods faster than no-CD.
Verdict cd_backoff_faster(std::span<const RunRecord> nocd,
                          std::span<const RunRecord> cd);
/// E14: every MIS run is independent and maximal.
Verdict mis_valid(std::span<const RunRecord> runs);
/// E14: crashes are topology events -- failure-free cells cover every
/// run, leaf-then-die leaves one covered survivor per run, and
/// random-crash / source-dies coverage is conditional (some runs covered,
/// some stranded).  `seeds` runs per cell, cells contiguous.
Verdict crash_shapes(std::span<const RunRecord> runs, std::size_t seeds);

}  // namespace ccd::exp
