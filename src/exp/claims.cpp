#include "exp/claims.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>

#include "cd/oracle_detector.hpp"
#include "cm/backoff_cm.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/alg3_zero_ac_nocf.hpp"
#include "consensus/alg4_non_anonymous.hpp"
#include "consensus/naive_no_cd.hpp"
#include "exp/aggregator.hpp"
#include "net/ecf_adversary.hpp"
#include "net/unrestricted_loss.hpp"
#include "util/bitcodec.hpp"
#include "util/bitwords.hpp"
#include "util/numfmt.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/value_bst.hpp"

namespace ccd::exp {

namespace {

std::string num(double x) { return numfmt::general(x, 6); }

// "" when value <= bound; otherwise "<what> <value> > <bound>".
std::string over(const char* what, double value, double bound) {
  if (value <= bound) return "";
  return std::string(what) + " " + num(value) + " > " + num(bound);
}

// "" when the verdict solves consensus; otherwise which property broke.
std::string unsolved(const ConsensusVerdict& v) {
  if (!v.agreement) return "agreement violated";
  if (!v.strong_validity || !v.uniform_validity) return "validity violated";
  return v.termination ? "" : "did not terminate";
}

Round lg8(std::uint64_t num_values) {
  return 8 * std::max<std::uint32_t>(1, ceil_log2(num_values));
}

bool covered(const RunRecord& r) {
  return r.mh.full_coverage_round != kNeverRound;
}

double decision_round(const RunRecord& r) {
  return r.summary.verdict.solved() ? r.summary.verdict.last_decision_round
                                    : static_cast<double>(kNeverRound);
}

double coverage_round(const RunRecord& r) {
  return r.mh.full_coverage_round;
}

Verdict first_failure(std::initializer_list<Verdict> verdicts) {
  for (const Verdict& v : verdicts) {
    if (!v.pass) return v;
  }
  return {};
}

Verdict all_runs_solved(std::span<const RunRecord> runs) {
  return every_run(
      runs, [](const RunRecord& r) { return unsolved(r.summary.verdict); });
}

Verdict all_covered(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    return covered(r) ? "" : "not fully covered";
  });
}

// Every span passes `each`, and consecutive spans' mean metrics strictly
// increase.
Verdict means_grow(const std::vector<std::span<const RunRecord>>& series,
                   Verdict (*each)(std::span<const RunRecord>),
                   double (*metric)(const RunRecord&)) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    Verdict v = each(series[i]);
    if (v.pass && i + 1 < series.size()) {
      v = mean_below(series[i], series[i + 1], metric);
    }
    if (!v.pass) return v;
  }
  return {};
}

Verdict after_cst_within(std::span<const RunRecord> runs,
                         Round (*bound)(std::uint64_t)) {
  return every_run(runs, [bound](const RunRecord& r) {
    std::string w = unsolved(r.summary.verdict);
    if (w.empty() && r.summary.cst == kNeverRound) w = "no CST";
    if (!w.empty()) return w;
    return over("after-CST rounds", r.summary.rounds_after_cst,
                bound(r.spec.num_values));
  });
}

}  // namespace

// ---- predicates -------------------------------------------------------------

Verdict mean_below(std::span<const RunRecord> lo, std::span<const RunRecord> hi,
                   double (*metric)(const RunRecord&), bool strict) {
  if (lo.empty() || hi.empty()) return {false, 0, "empty cell", {}};
  Stats a, b;
  for (const RunRecord& r : lo) a.add(metric(r));
  for (const RunRecord& r : hi) b.add(metric(r));
  if (strict ? a.mean() < b.mean() : a.mean() <= b.mean()) return {};
  const RunRecord& worst = *std::max_element(
      lo.begin(), lo.end(), [metric](const RunRecord& x, const RunRecord& y) {
        return metric(x) < metric(y);
      });
  return {false, worst.run_index,
          "mean " + num(a.mean()) + (strict ? " >= " : " > ") + num(b.mean()),
          worst.spec};
}

Verdict lattice_matches(const std::vector<LatticeRow>& rows) {
  return every_row(rows, [](const LatticeRow& row) {
    if (row.predicted == row.empirical) return std::string();
    return row.pair + (row.predicted ? ": predicted, not observed"
                                     : ": observed, not predicted");
  });
}

Verdict lemma1_nocd_in_noacc(const std::vector<LatticeRow>& rows) {
  return every_row(rows, [](const LatticeRow& row) {
    const bool holds = row.predicted && row.empirical;
    return row.pair != "NoCD in NoACC" || holds ? "" : "NoCD not in NoACC";
  });
}

Verdict theorem1_bound(std::span<const RunRecord> runs) {
  return after_cst_within(runs, [](std::uint64_t) -> Round { return 2; });
}

Verdict theorem2_bound(std::span<const RunRecord> runs) {
  return after_cst_within(runs, &Alg2Algorithm::round_bound_after_cst);
}

Verdict ids_cost_grows(const std::vector<std::span<const RunRecord>>& by_ids) {
  return means_grow(by_ids, all_runs_solved, decision_round);
}

Verdict ids_beat_values(std::span<const RunRecord> alg4,
                        std::span<const RunRecord> alg2) {
  return first_failure({all_runs_solved(alg4), all_runs_solved(alg2),
                        mean_below(alg4, alg2, decision_round)});
}

Verdict ids_buy_nothing(std::span<const RunRecord> alg4,
                        std::span<const RunRecord> alg2) {
  return first_failure({all_runs_solved(alg4), all_runs_solved(alg2),
                        mean_below(alg2, alg4, decision_round, false)});
}

Verdict theorem3_failure_free(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    const std::string w = unsolved(r.summary.verdict);
    if (!w.empty()) return w;
    return over("decision round", r.summary.verdict.last_decision_round,
                lg8(r.spec.num_values));
  });
}

Verdict theorem3_after_crash(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    const std::string w = unsolved(r.summary.verdict);
    if (!w.empty()) return w;
    Round crash = 0;
    for (const CrashEvent& e : resolved_crash_schedule(r.spec)) {
      crash = std::max(crash, e.round);
    }
    const Round decide = r.summary.verdict.last_decision_round;
    return over("rounds after crash", decide > crash ? decide - crash : 0,
                lg8(r.spec.num_values));
  });
}

Verdict folded_three_quarters(
    const std::vector<std::pair<RunSummary, RunSummary>>& rows) {
  return every_row(rows, [](const std::pair<RunSummary, RunSummary>& row) {
    const std::string w =
        unsolved(row.first.verdict) + unsolved(row.second.verdict);
    const Round plain = row.first.verdict.last_decision_round;
    const Round folded = row.second.verdict.last_decision_round;
    if (!w.empty() || 4 * folded == 3 * plain) return w;
    return "folded " + num(folded) + " != 3/4 of plain " + num(plain);
  });
}

Verdict nocd_dichotomy(const std::vector<CompositionRun>& naive,
                       const std::vector<RunSummary>& safe) {
  Verdict v = every_row(naive, [](const CompositionRun& row) {
    return row.second.summary.verdict.agreement ? "NaiveNoCd agreed" : "";
  });
  if (!v.pass) return v;
  v = every_row(safe, [](const RunSummary& s) {
    const bool silent = s.verdict.decided_values.empty();
    return silent && !s.verdict.termination ? "" : "a safe algorithm decided";
  });
  v.at += v.pass ? 0 : naive.size();
  return v;
}

Verdict half_ac_splits(const std::vector<CompositionRun>& rows) {
  return every_row(rows, [](const CompositionRun& row) {
    const bool majority =
        row.first.spec.completeness == Completeness::kMajority;
    if (majority == row.second.summary.verdict.agreement) return "";
    return majority ? "maj-AC split the decision" : "half-AC kept agreement";
  });
}

Verdict collisions_found(
    const std::vector<std::optional<CollidingPair>>& rows) {
  return every_row(rows, [](const std::optional<CollidingPair>& pair) {
    return pair ? "" : "no colliding pair within the budget";
  });
}

Verdict decides_after_heal(const std::vector<CompositionRun>& rows) {
  return every_row(rows, [](const CompositionRun& row) {
    const ConsensusVerdict& v = row.second.summary.verdict;
    const std::string w = unsolved(v);
    if (!w.empty() || v.first_decision_round > row.first.k) return w;
    return "decided at " + num(v.first_decision_round) + ", before the heal";
  });
}

Verdict all_solved(const std::vector<RunSummary>& rows) {
  return every_row(rows,
                   [](const RunSummary& s) { return unsolved(s.verdict); });
}

Verdict some_unsafe(const std::vector<RunSummary>& rows) {
  for (const RunSummary& s : rows) {
    if (!s.verdict.safe()) return {};
  }
  return {false, 0, "every seed stayed safe", {}};
}

Verdict stalls_safely(const std::vector<CompositionRun>& rows) {
  return every_row(rows, [](const CompositionRun& row) {
    const ConsensusVerdict& v = row.second.summary.verdict;
    if (v.termination) return "terminated";
    return v.agreement ? "" : "agreement violated";
  });
}

Verdict between_floor_and_ceiling(
    const std::vector<std::pair<std::uint64_t, BetaResult>>& rows) {
  return every_row(rows, [](const std::pair<std::uint64_t, BetaResult>& row) {
    const std::uint32_t lg = ceil_log2(row.first);
    const Round decide = row.second.last_decision_round;
    if (!row.second.all_decided) return std::string("not all decided");
    if (decide + 1 < lg) return "decided at " + num(decide) + " < lg|V| - 1";
    return over("decision round", decide, 8.0 * lg);
  });
}

Verdict complexity_gap(const std::vector<GapRow>& rows,
                       std::uint64_t id_space) {
  double plateau = -1;
  return every_row(rows, [&](const GapRow& row) {
    for (const Worst* column : {&row.alg1, &row.alg2, &row.alg4, &row.alg3}) {
      if (column->unsolved > 0) return num(column->unsolved) + " unsolved";
    }
    if (row.alg2.rounds <= row.alg1.rounds) return std::string("no gap");
    if (row.num_values > id_space && plateau < 0) plateau = row.alg4.rounds;
    if (row.num_values > id_space && row.alg4.rounds != plateau) {
      return "Algorithm 4 left its plateau at " + num(row.alg4.rounds);
    }
    return over("Algorithm 1 rounds", row.alg1.rounds, 2) +
           over("Algorithm 2 rounds", row.alg2.rounds,
                Alg2Algorithm::round_bound_after_cst(row.num_values)) +
           over("Algorithm 3 rounds", row.alg3.rounds, lg8(row.num_values));
  });
}

Verdict all_lock_in(const std::vector<Stats>& rows, std::size_t seeds) {
  return every_row(rows, [seeds](const Stats& lock) {
    if (lock.count() == seeds) return std::string();
    return num(static_cast<double>(lock.count())) + " seeds locked in";
  });
}

Verdict always_safe(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    const ConsensusVerdict& v = r.summary.verdict;
    return v.safe() && v.uniform_validity ? "" : unsolved(v);
  });
}

Verdict sync_within_bound(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    if (r.sync.within_bound) return std::string();
    return over("skew (us)", r.sync.max_skew * 1e6, r.sync.skew_bound * 1e6);
  });
}

Verdict long_rounds_agree(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    if (r.spec.sync_round_length <= 2 * r.sync.skew_bound ||
        r.sync.round_agreement == 1.0) {
      return std::string();
    }
    return "round agreement " + num(r.sync.round_agreement);
  });
}

Verdict lines_covered(const std::vector<std::span<const RunRecord>>& by_n) {
  return means_grow(by_n, all_covered, coverage_round);
}

Verdict cd_backoff_faster(std::span<const RunRecord> nocd,
                          std::span<const RunRecord> cd) {
  return first_failure({all_covered(cd), mean_below(cd, nocd, coverage_round)});
}

Verdict mis_valid(std::span<const RunRecord> runs) {
  return every_run(runs, [](const RunRecord& r) {
    if (!r.mh.mis_independent) return "two adjacent heads";
    return r.mh.mis_maximal ? "" : "a node without a head";
  });
}

Verdict crash_shapes(std::span<const RunRecord> runs, std::size_t seeds) {
  for (std::size_t c = 0; c < runs.size(); c += seeds) {
    const std::span<const RunRecord> cell = runs.subspan(c, seeds);
    const ScenarioSpec& spec = cell.front().spec;
    Verdict v;
    if (spec.fault == FaultKind::kNone) {
      v = every_run(cell, [](const RunRecord& r) {
        if (r.mh.crashes_applied > 0) return "crashed";
        return covered(r) ? "" : "not fully covered";
      });
    } else if (spec.fault == FaultKind::kScheduled &&
               spec.crash_schedule_name == "leaf-then-die") {
      v = every_run(cell, [](const RunRecord& r) {
        if (r.mh.survivors != 1) return "not exactly one survivor";
        return covered(r) ? "" : "the survivor was not covered";
      });
    } else {
      const auto n = std::count_if(cell.begin(), cell.end(), covered);
      if (n == 0 || n == static_cast<std::ptrdiff_t>(cell.size())) {
        v = {false, cell.front().run_index,
             n == 0 ? "no run covered" : "every run covered", spec};
      }
    }
    if (!v.pass) return v;
  }
  return {};
}

// ---- experiments ------------------------------------------------------------

namespace {

/// One grid, run on all cores and reduced per cell.
struct Sweep {
  SweepGrid grid;
  std::vector<RunRecord> runs;
  std::vector<CellAggregate> cells;

  std::span<const RunRecord> runs_of(std::size_t cell) const {
    return std::span<const RunRecord>(runs).subspan(
        cell * grid.seeds_per_cell, grid.seeds_per_cell);
  }
};

Sweep sweep(const SweepGrid& grid) {
  SweepOptions options;
  options.threads = 0;  // all cores; records are thread-invariant
  Sweep s{grid, run_sweep(grid, options), {}};
  s.cells = aggregate(grid, s.runs);
  return s;
}

void append(std::vector<RunRecord>& all, const Sweep& s) {
  all.insert(all.end(), s.runs.begin(), s.runs.end());
}

/// The theorem experiments' adversarial stack: wake-up service, ECF loss,
/// chaotic pre-CST environment (capture-effect contention).
SweepGrid chaotic_grid(AlgKind alg, DetectorKind detector, PolicyKind policy,
                       double spurious_p, std::uint32_t seeds) {
  SweepGrid grid;
  grid.base = {.alg = alg, .detector = detector, .policy = policy,
               .cm = CmKind::kWakeup, .loss = LossKind::kEcf,
               .chaos = ChaosKind::kChaotic, .spurious_p = spurious_p};
  grid.seeds_per_cell = seeds;
  grid.grid_seed = 2025;
  return grid;
}

/// A direct failure-free world, assembled below the spec surface.
RunSummary run_direct(const ConsensusAlgorithm& alg, std::vector<Value> init,
                      std::unique_ptr<ContentionManager> cm,
                      const DetectorSpec& spec,
                      std::unique_ptr<AdvicePolicy> policy,
                      std::unique_ptr<LossAdversary> loss, Round max_rounds) {
  return run_consensus(
      make_world(alg, std::move(init), std::move(cm),
                 std::make_unique<OracleDetector>(spec, std::move(policy)),
                 std::move(loss), std::make_unique<NoFailures>()),
      max_rounds);
}

/// No collision freedom ever: every contended broadcast is lost.
std::unique_ptr<LossAdversary> total_loss(std::uint64_t seed) {
  return std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{
      UnrestrictedLoss::Mode::kDropOthers, 0.0, seed});
}

double mean_or_0(const Stats& s) { return s.empty() ? 0.0 : s.mean(); }

std::string after_cst_max(const CellAggregate& cell) {
  if (cell.rounds_after_cst.empty()) return "-";
  return std::to_string(static_cast<Round>(cell.rounds_after_cst.max()));
}

std::string pair_cell(const std::optional<CollidingPair>& pair) {
  if (!pair) return "-";
  return std::to_string(pair->v1) + "," + std::to_string(pair->v2);
}

std::string fraction(std::size_t part, std::size_t whole) {
  return std::to_string(part) + "/" + std::to_string(whole);
}

// E1 -- Figure 1: the detector class table, and the subset lattice checked
// empirically: advice generated inside one class's envelope (both extreme
// policies, random rounds) must stay legal for every containing class.
std::vector<Claim> e1_detector_classes(std::ostream& os) {
  os << "=== E1: Figure 1 -- collision detector classes ===\n\n";
  const std::pair<DetectorSpec, const char*> classes[] = {
      {DetectorSpec::AC(), "perfect detection"},
      {DetectorSpec::MajAC(), "strict-majority threshold"},
      {DetectorSpec::HalfAC(), "half threshold"},
      {DetectorSpec::ZeroAC(), "carrier sense only"},
      {DetectorSpec::OAC(8), "false positives until r_acc"},
      {DetectorSpec::MajOAC(8), "Algorithm 1's class"},
      {DetectorSpec::HalfOAC(8), "Theorem 6's class"},
      {DetectorSpec::ZeroOAC(8), "Algorithm 2's class"},
      {DetectorSpec::NoCD(), "always +-"},
      {DetectorSpec::NoAcc(), "complete, never accurate"},
  };
  AsciiTable table({"class", "completeness (forces +- when)",
                    "accuracy (forces null when)", "note"});
  // Indexed by Completeness / Accuracy, in enum order.
  const char* const completeness[] = {
      "t < c (any loss)", "2t <= c (no strict majority)",
      "2t < c (less than half)", "t = 0, c > 0 (lost all)", "never"};
  const char* const accuracy[] = {"t = c (always)", "t = c and r >= r_acc",
                                  "never"};
  for (const auto& [s, note] : classes) {
    const int c = static_cast<int>(s.completeness);
    const char* comp = s.always_collision ? "always +-" : completeness[c];
    table.add(s.class_name(), comp, accuracy[static_cast<int>(s.accuracy)],
              note);
  }
  table.print(os);

  os << "\nSubset lattice verification (X in Y: every detector of class X "
        "is a legal detector of class Y):\n\n";
  Rng rng(2025);
  std::vector<LatticeRow> rows;
  for (const auto& [a, a_note] : classes) {
    for (const auto& [b, b_note] : classes) {
      bool contained = true;
      for (int collide = 0; collide < 2 && contained; ++collide) {
        OracleDetector det(a, collide ? make_prefer_collision_policy()
                                      : make_prefer_null_policy());
        for (int trial = 0; trial < 2000 && contained; ++trial) {
          const Round r = static_cast<Round>(rng.between(1, 16));
          const auto c = static_cast<std::uint32_t>(rng.between(0, 8));
          std::vector<std::uint32_t> t(4);
          for (auto& ti : t) ti = static_cast<std::uint32_t>(rng.between(0, c));
          BitSet collision(t.size());
          det.advise(r, c, t, collision.words());
          for (std::size_t i = 0; i < t.size(); ++i) {
            const CdAdvice advice = collision.test(i) ? CdAdvice::kCollision
                                                      : CdAdvice::kNull;
            contained = contained && b.advice_legal(r, c, t[i], advice);
          }
        }
      }
      rows.push_back({a.class_name() + " in " + b.class_name(),
                      a.subclass_of(b), contained});
    }
  }
  const auto matched = std::count_if(rows.begin(), rows.end(), [](auto& r) {
    return r.predicted == r.empirical;
  });
  // A mismatch is named by the Figure 1 claim's verdict.
  if (matched == static_cast<std::ptrdiff_t>(rows.size())) {
    os << "  all " << rows.size()
       << " ordered pairs: predicted containment == empirical containment\n";
  } else {
    os << "  " << matched << "/" << rows.size() << " pairs matched\n";
  }
  return {{"Figure 1", "predicted class containment == empirical",
           lattice_matches(rows)},
          {"Lemma 1", "NoCD is a subclass of NoACC",
           lemma1_nocd_in_noacc(rows)}};
}

// E2 -- Theorem 1: Algorithm 1 (maj-<>AC + WS + ECF) decides by CST + 2,
// independent of n, |V| and where CST falls.
std::vector<Claim> e2_alg1(std::ostream& os) {
  os << "=== E2: Algorithm 1 terminates by CST + 2 (Theorem 1) ===\n\n";
  SweepGrid grid = chaotic_grid(AlgKind::kAlg1, DetectorKind::kMajOAC,
                                PolicyKind::kSpurious, 0.4, 20);
  grid.ns = {2, 4, 8, 16, 32, 64, 128};
  grid.value_spaces = {2, 256, 1ull << 20};
  grid.csts = {1, 10, 50};
  const Sweep s = sweep(grid);
  const Round kBound = 2;
  AsciiTable table({"n", "|V|", "CST", "seeds", "after-CST max",
                    "after-CST mean", "bound", "ok"});
  for (const CellAggregate& cell : s.cells) {
    table.add(cell.spec.n, cell.spec.num_values, cell.spec.cst_target,
              cell.solved, after_cst_max(cell),
              mean_or_0(cell.rounds_after_cst), kBound,
              theorem1_bound(s.runs_of(cell.cell_index)).pass);
  }
  table.print(os);
  return {{"Theorem 1", "Algorithm 1 decides by CST + 2 in every run",
           theorem1_bound(s.runs)}};
}

// E3 -- Theorem 2: Algorithm 2 (0-<>AC + WS + ECF) decides by
// CST + 2(ceil(lg|V|) + 1), matching Theorem 6's lower bound.
std::vector<Claim> e3_alg2(std::ostream& os) {
  os << "=== E3: Algorithm 2 terminates by CST + 2(lg|V|+1) "
        "(Theorem 2) ===\n\n";
  SweepGrid grid = chaotic_grid(AlgKind::kAlg2, DetectorKind::kZeroOAC,
                                PolicyKind::kSpurious, 0.3, 5);
  grid.value_spaces = {2, 4, 16, 256, 4096, 1ull << 16, 1ull << 20};
  grid.ns = {4, 16};
  grid.csts = {5, 12, 19};
  const Sweep s = sweep(grid);
  AsciiTable table({"|V|", "lg|V|", "n", "CST", "seeds", "after-CST max",
                    "after-CST mean", "bound 2(lg|V|+1)", "ok"});
  for (const CellAggregate& cell : s.cells) {
    table.add(cell.spec.num_values, ceil_log2(cell.spec.num_values),
              cell.spec.n, cell.spec.cst_target, cell.solved,
              after_cst_max(cell), mean_or_0(cell.rounds_after_cst),
              Alg2Algorithm::round_bound_after_cst(cell.spec.num_values),
              theorem2_bound(s.runs_of(cell.cell_index)).pass);
  }
  table.print(os);
  return {{"Theorem 2", "Algorithm 2 decides by CST + 2(lg|V|+1), every run",
           theorem2_bound(s.runs)}};
}

// E4 -- Section 7.3: the non-anonymous protocol runs in
// CST + O(min{lg|V|, lg|I|}).  With |I| < |V| it elects a leader on the ID
// space and beats Algorithm 2; with |I| >= |V| it IS Algorithm 2.
std::vector<Claim> e4_nonanon(std::ostream& os) {
  os << "=== E4: non-anonymous consensus in CST + O(min{lg|V|, lg|I|}) "
        "(Section 7.3 / Corollary 3) ===\n\n";
  SweepGrid base = chaotic_grid(AlgKind::kAlg4, DetectorKind::kZeroOAC,
                                PolicyKind::kTruthful, 0.4, 8);
  base.base.cst_target = 1;
  const std::uint64_t big_v = 1ull << 30;
  // A cell with zero solved runs shows kNeverRound: failures print as
  // visibly huge numbers instead of dividing the ratio columns by zero.
  auto mean_rounds = [](const CellAggregate& cell) {
    return cell.decision_round.empty() ? static_cast<double>(kNeverRound)
                                       : cell.decision_round.mean();
  };

  os << "--- fixed |V| = 2^30, varying |I| (leader election pays lg|I|) "
        "---\n";
  AsciiTable t1({"|I|", "lg|I|", "mode", "rounds (mean over seeds)",
                 "lg-ratio vs |I|=16"});
  std::vector<Sweep> by_ids;
  for (std::uint64_t id_space : {16ull, 256ull, 4096ull, 1ull << 16}) {
    SweepGrid grid = base;
    grid.base.num_values = big_v;
    grid.base.id_space = id_space;
    const Sweep& s = by_ids.emplace_back(sweep(grid));
    const double rounds = mean_rounds(s.cells[0]);
    t1.add(id_space, ceil_log2(id_space),
           id_space < big_v ? "leader" : "direct", rounds,
           rounds / mean_rounds(by_ids.front().cells[0]));
  }
  t1.print(os);

  os << "\n--- head-to-head on |V| = 2^30: non-anonymous (|I|=16) vs "
        "anonymous Algorithm 2 ---\n";
  AsciiTable t2({"protocol", "uses", "rounds (mean)", "speedup"});
  SweepGrid grid = base;
  grid.base.num_values = big_v;
  grid.base.id_space = 16;
  grid.algs = {AlgKind::kAlg4, AlgKind::kAlg2};  // id_space inert for alg2
  const Sweep h2h = sweep(grid);
  const double r4 = mean_rounds(h2h.cells.at(0));
  const double r2 = mean_rounds(h2h.cells.at(1));
  t2.add("Alg4 leader mode", "lg|I| = 4", r4, r2 / r4);
  t2.add("Alg2 (anonymous)", "lg|V| = 30", r2, 1.0);
  t2.print(os);

  os << "\n--- fixed |I| = 2^20 (IDs plentiful): rounds track lg|V|, "
        "identifiers buy nothing ---\n";
  AsciiTable t3({"|V|", "lg|V|", "Alg4 rounds", "Alg2 rounds"});
  grid = base;
  grid.base.id_space = 1ull << 20;
  grid.algs = {AlgKind::kAlg4, AlgKind::kAlg2};
  grid.value_spaces = {16, 256, 4096, 1ull << 16};
  const Sweep plenty = sweep(grid);
  // Cell order: value_spaces is an inner axis, algs outer.
  const std::size_t nv = grid.value_spaces.size();
  Verdict no_gain;
  for (std::size_t v = 0; v < nv; ++v) {
    const CellAggregate& c4 = plenty.cells.at(v);
    t3.add(c4.spec.num_values, ceil_log2(c4.spec.num_values),
           mean_rounds(c4), mean_rounds(plenty.cells.at(nv + v)));
    if (no_gain.pass) {
      no_gain = ids_buy_nothing(plenty.runs_of(v), plenty.runs_of(nv + v));
    }
  }
  t3.print(os);
  std::vector<std::span<const RunRecord>> spans;
  for (const Sweep& s : by_ids) spans.push_back(s.runs);
  return {{"Section 7.3", "at |V| = 2^30, leader mode's rounds grow with |I|",
           ids_cost_grows(spans)},
          {"Section 7.3", "with |I| < |V|, Algorithm 4 beats Algorithm 2",
           ids_beat_values(h2h.runs_of(0), h2h.runs_of(1))},
          {"Corollary 3", "with |I| >= |V|, identifiers buy nothing", no_gain}};
}

// E5 -- Theorem 3: Algorithm 3 (0-AC, NoCM) solves consensus without any
// delivery guarantee, within 8*lg|V| rounds after failures cease.
std::vector<Claim> e5_alg3(std::ostream& os) {
  os << "=== E5: Algorithm 3 under NO collision freedom -- 8*lg|V| "
        "after failures cease (Theorem 3) ===\n\n";
  SweepGrid base;  // NoCF: the worst-case, unrestricted channel
  base.base = {.alg = AlgKind::kAlg3, .detector = DetectorKind::kZeroAC,
               .policy = PolicyKind::kTruthful, .cm = CmKind::kNoCm,
               .loss = LossKind::kUnrestricted};
  base.grid_seed = 5;

  os << "--- failure-free: decision round vs 8*lg|V| ---\n";
  AsciiTable table({"|V|", "lg|V|", "n", "rounds max", "rounds mean",
                    "bound 8lg|V|", "ok"});
  SweepGrid grid = base;
  grid.value_spaces = {2, 16, 256, 4096, 1ull << 16, 1ull << 20};
  grid.ns = {3, 12};
  grid.seeds_per_cell = 12;
  const Sweep ff = sweep(grid);
  for (const CellAggregate& cell : ff.cells) {
    table.add(cell.spec.num_values, ceil_log2(cell.spec.num_values),
              cell.spec.n,
              static_cast<std::uint64_t>(
                  cell.decision_round.empty() ? 0 : cell.decision_round.max()),
              mean_or_0(cell.decision_round), lg8(cell.spec.num_values),
              theorem3_failure_free(ff.runs_of(cell.cell_index)).pass);
  }
  table.print(os);

  os << "\n--- worst-case crash: min-value process leads to a leaf, "
        "dies; everyone reclimbs (Theorem 3 discussion) ---\n";
  AsciiTable crash_table({"|V|", "crash round", "decide round",
                          "rounds after crash", "budget 8lg|V|", "ok"});
  std::vector<RunRecord> crash_runs;
  for (std::uint64_t num_values : {256ull, 4096ull, 1ull << 16}) {
    const Round crash_round = 4 * ValueBstCursor(num_values).tree_height();
    // n = 2 so the split init {0, |V|-1} gives process 0 a UNIQUE minimum:
    // it leads the other to value 0's leaf, the schedule kills it there,
    // and the survivor must reclimb the whole tree.
    grid = base;
    grid.base.n = 2;
    grid.base.num_values = num_values;
    grid.base.init = InitKind::kSplit;
    grid.base.fault = FaultKind::kScheduled;
    grid.base.crash_schedule = {{crash_round, 0, CrashPoint::kBeforeSend}};
    grid.base.max_rounds = crash_round + lg8(num_values) + 60;
    const Sweep s = sweep(grid);
    const Stats& decided = s.cells.at(0).decision_round;
    const auto decide = static_cast<Round>(decided.empty() ? 0 : decided.max());
    crash_table.add(num_values, crash_round, decide,
                    decide > crash_round ? decide - crash_round : 0,
                    lg8(num_values), theorem3_after_crash(s.runs).pass);
    append(crash_runs, s);
  }
  crash_table.print(os);

  // The folded recurse round is an algorithm-variant knob below the spec
  // surface, so the ablation runs direct worlds.
  os << "\n--- ablation: dedicated recurse round (8lg|V|) vs folded "
        "(6lg|V|) ---\n";
  AsciiTable fold_table({"|V|", "plain rounds", "folded rounds", "ratio"});
  std::vector<std::pair<RunSummary, RunSummary>> folds;
  for (std::uint64_t num_values : {64ull, 1024ull, 1ull << 16}) {
    auto run = [num_values](bool fold) {
      return run_direct(Alg3Algorithm(num_values, fold),
                        {num_values - 1, num_values - 2},
                        std::make_unique<NoCm>(), DetectorSpec::ZeroAC(),
                        make_truthful_policy(), total_loss(2), 5000);
    };
    folds.emplace_back(run(false), run(true));
    const Round plain = folds.back().first.verdict.last_decision_round;
    const Round folded = folds.back().second.verdict.last_decision_round;
    fold_table.add(num_values, plain, folded,
                   static_cast<double>(folded) / static_cast<double>(plain));
  }
  fold_table.print(os);
  return {{"Theorem 3", "failure-free, Algorithm 3 decides by 8lg|V|",
           theorem3_failure_free(ff.runs)},
          {"Theorem 3", "after a worst-case crash, it decides within 8lg|V|",
           theorem3_after_crash(crash_runs)},
          {"Section 7.4", "the folded recurse round takes 3/4 of the rounds",
           folded_three_quarters(folds)}};
}

// E6 -- Theorems 4 and 5: consensus is impossible without collision
// detection (NoCD) or eventual accuracy (NoACC), even with leader election
// and ECF.  Shown as a dichotomy over the proof's composition execution:
// deciding without trustworthy advice violates agreement; the paper's
// safe algorithms never pass their decide guards.
std::vector<Claim> e6_nocd(std::ostream& os) {
  os << "=== E6: impossibility without collision detection "
        "(Theorems 4 & 5) ===\n\n";
  os << "--- the deciding horn: NaiveNoCd under the Theorem 4 "
        "composition ---\n";
  AsciiTable table({"group size", "k (partition)", "group A decided",
                    "group B decided", "agreement"});
  std::vector<CompositionRun> naive;
  for (std::size_t g : {2, 4, 8}) {
    for (Round k : {5u, 20u}) {
      const CompositionConfig config{.group_size = g, .value_a = 1,
                                     .value_b = 2, .k = k,
                                     .spec = DetectorSpec::NoCD(),
                                     .max_rounds = 300};
      const NaiveNoCdAlgorithm alg(/*patience=*/200);
      const CompositionOutcome& outcome =
          naive.emplace_back(config, run_composition(alg, config)).second;
      table.add(g, k, outcome.group_a_value, outcome.group_b_value,
                outcome.summary.verdict.agreement);
    }
  }
  table.print(os);

  os << "\n--- the safe horn: real algorithms + NoCD / NoACC "
        "detector never terminate ---\n";
  AsciiTable safe_table({"algorithm", "detector class", "rounds simulated",
                         "decisions", "termination"});
  const Round horizon = 2000;
  const Alg1Algorithm alg1;
  const Alg2Algorithm alg2(16);
  std::vector<RunSummary> safe;
  for (const ConsensusAlgorithm* alg :
       {static_cast<const ConsensusAlgorithm*>(&alg1),
        static_cast<const ConsensusAlgorithm*>(&alg2)}) {
    for (bool noacc : {false, true}) {
      const DetectorSpec spec =
          noacc ? DetectorSpec::NoAcc() : DetectorSpec::NoCD();
      const ConsensusVerdict& v =
          safe.emplace_back(
                  run_direct(*alg, random_initial_values(4, 16, 3),
                             std::make_unique<WakeupService>(
                                 WakeupService::Options{.r_wake = 1}),
                             spec,
                             noacc ? make_prefer_collision_policy()
                                   : make_prefer_null_policy(),
                             std::make_unique<EcfAdversary>(
                                 EcfAdversary::Options{.r_cf = 1}),
                             horizon))
              .verdict;
      safe_table.add(alg->name(), spec.class_name(), horizon,
                     v.decided_values.size(), v.termination);
    }
  }
  safe_table.print(os);
  return {{"Theorems 4 & 5",
           "without trustworthy detection, deciding breaks agreement and "
           "safe algorithms never decide",
           nocd_dichotomy(naive, safe)}};
}

// E7 -- Theorems 6 & 7 / Corollary 3: with only HALF completeness,
// consensus needs Omega(lg|V|) rounds after CST.
std::vector<Claim> e7_halfac(std::ostream& os) {
  os << "=== E7: the half-completeness lower bound (Theorems 6 & 7) "
        "===\n\n";
  os << "--- (a) Algorithm 1 + half-AC detector: agreement violated ---\n";
  AsciiTable split_table({"group size", "spec", "A decided", "B decided",
                          "agreement", "decision round"});
  std::vector<CompositionRun> splits;
  for (std::size_t g : {2, 4, 8, 16}) {
    for (bool majority : {false, true}) {
      const CompositionConfig config{
          .group_size = g, .value_a = 1, .value_b = 2, .k = 16,
          .spec = majority ? DetectorSpec::MajAC() : DetectorSpec::HalfAC(),
          .max_rounds = 200};
      const CompositionOutcome& outcome =
          splits.emplace_back(config, run_composition(Alg1Algorithm(), config))
              .second;
      split_table.add(g, config.spec.class_name(), outcome.group_a_value,
                      outcome.group_b_value,
                      outcome.summary.verdict.agreement,
                      outcome.summary.verdict.first_decision_round);
    }
  }
  split_table.print(os);

  os << "\n--- (b) Lemma 21 pigeonhole: colliding bbc prefixes among "
        "alpha executions of Algorithm 2 ---\n";
  AsciiTable pigeon_table({"k (rounds)", "3^k", "|V| tried", "collision",
                           "pair"});
  const std::uint64_t num_values = 1u << 16;
  const Alg2Algorithm alg(num_values);
  std::vector<std::optional<CollidingPair>> pairs;
  std::uint64_t pow3 = 1;
  for (Round k = 1; k <= 7; ++k) {
    pow3 *= 3;
    const std::uint64_t budget = 2 * pow3 + 2;
    const auto& pair = pairs.emplace_back(
        find_alpha_collision(alg, 4, num_values, k, budget));
    pigeon_table.add(k, pow3, std::min(budget, num_values), pair.has_value(),
                     pair_cell(pair));
  }
  pigeon_table.print(os);

  os << "\n--- (c) the delay horn: Algorithm 2 under the half-AC "
        "partition decides only after the heal ---\n";
  AsciiTable delay_table({"k (partition)", "first decision",
                          "decided after heal", "agreement"});
  std::vector<CompositionRun> delays;
  for (Round k : {4u, 16u, 64u, 256u}) {
    const CompositionConfig config{.group_size = 4, .value_a = 5,
                                   .value_b = 1000, .k = k,
                                   .spec = DetectorSpec::HalfAC(),
                                   .max_rounds = k + 200};
    const ConsensusVerdict& v =
        delays.emplace_back(config,
                            run_composition(Alg2Algorithm(1u << 10), config))
            .second.summary.verdict;
    delay_table.add(k, v.first_decision_round, v.first_decision_round > k,
                    v.agreement);
  }
  delay_table.print(os);
  return {{"Lemmas 5 & 23", "half-AC splits Algorithm 1; maj-AC blocks it",
           half_ac_splits(splits)},
          {"Lemma 21", "alpha bbc prefixes collide within 2*3^k+2 values",
           collisions_found(pairs)},
          {"Theorem 6", "Algorithm 2 decides, agreeing, only after the heal",
           decides_after_heal(delays)}};
}

// E8 -- Theorem 8: without ECF, a complete but only eventually accurate
// detector cannot solve consensus: Algorithm 3, correct with an accurate
// detector under total loss, desynchronizes with an eventually accurate
// one.
std::vector<Claim> e8_oac_nocf(std::ostream& os) {
  os << "=== E8: impossibility with eventual accuracy but no ECF "
        "(Theorem 8) ===\n\n";
  auto trials = [](bool eventual) {
    const Round r_acc = 60;
    std::vector<RunSummary> rows;
    for (int seed = 1; seed <= 50; ++seed) {
      rows.push_back(run_direct(
          Alg3Algorithm(64), split_initial_values(4, 10, 50),
          std::make_unique<NoCm>(),
          eventual ? DetectorSpec::OAC(r_acc) : DetectorSpec::AC(),
          eventual ? std::unique_ptr<AdvicePolicy>(
                         std::make_unique<SpuriousPolicy>(0.5, r_acc, seed))
                   : make_truthful_policy(),
          total_loss(static_cast<std::uint64_t>(seed)), 600));
    }
    return rows;
  };
  os << "--- Algorithm 3 under total loss (NoCF), 50 seeds each ---\n";
  AsciiTable table({"detector", "accuracy", "solved", "safety violations",
                    "non-termination"});
  const std::vector<RunSummary> accurate = trials(false);
  const std::vector<RunSummary> eventual = trials(true);
  for (const auto* rows : {&accurate, &eventual}) {
    std::size_t unsafe = 0;
    std::size_t stalled = 0;
    for (const RunSummary& s : *rows) {
      unsafe += s.verdict.safe() ? 0 : 1;
      stalled += s.verdict.safe() && !s.verdict.termination ? 1 : 0;
    }
    const bool ac = rows == &accurate;
    table.add(ac ? "0-AC (Theorem 3)" : "<>AC (Theorem 8)",
              ac ? "always" : "eventual only",
              rows->size() - unsafe - stalled, unsafe, stalled);
  }
  table.print(os);

  os << "\n--- the safe-algorithm horn: a never-healing partition + "
        "eventually-accurate detector stalls Algorithm 2 forever ---\n";
  AsciiTable stall_table({"algorithm", "partition", "rounds", "terminated",
                          "agreement"});
  const Alg2Algorithm alg(16);
  // heal = false -- NoCF: collision freedom never arrives.
  const CompositionConfig config{.group_size = 3, .value_a = 4, .value_b = 11,
                                 .k = 100, .heal = false,
                                 .spec = DetectorSpec::ZeroOAC(1),
                                 .max_rounds = 1000};
  const std::vector<CompositionRun> stall = {
      {config, run_composition(alg, config)}};
  const ConsensusVerdict& v = stall[0].second.summary.verdict;
  stall_table.add(alg.name(), "never heals", config.max_rounds,
                  v.termination, v.agreement);
  stall_table.print(os);
  return {{"Theorem 3", "0-AC: Algorithm 3 solves every seed in total loss",
           all_solved(accurate)},
          {"Theorem 8", "<>AC without ECF: some seed violates safety",
           some_unsafe(eventual)},
          {"Theorem 8", "a never-healing partition stalls Algorithm 2 safely",
           stalls_safely(stall)}};
}

// E9 -- Theorem 9: with an accurate detector but no collision freedom,
// anonymous consensus needs at least lg|V| - 1 rounds: processes get one
// bit per round (silence vs collision) and must spell their value out.
std::vector<Claim> e9_ac_nocf(std::ostream& os) {
  os << "=== E9: the accurate-but-NoCF lower bound (Theorem 9) ===\n\n";
  os << "--- (a) Theorem 9 pigeonhole over binary broadcast sequences "
        "---\n";
  AsciiTable table({"k (rounds)", "2^k", "candidates tried", "collision",
                    "pair"});
  const std::uint64_t big = 1u << 14;
  const Alg3Algorithm alg(big);
  std::vector<std::optional<CollidingPair>> pairs;
  for (Round k = 1; k <= 10; ++k) {
    const std::uint64_t budget = (1ull << k) + 1;
    const auto& pair =
        pairs.emplace_back(find_beta_collision(alg, 3, big, k, budget));
    table.add(k, 1ull << k, std::min(budget, big), pair.has_value(),
              pair_cell(pair));
  }
  table.print(os);

  os << "\n--- (b) Algorithm 3 decision rounds vs the lg|V|-1 floor "
        "and 8lg|V| ceiling ---\n";
  AsciiTable match_table({"|V|", "floor lg|V|-1", "decision round",
                          "ceiling 8lg|V|", "within"});
  std::vector<std::pair<std::uint64_t, BetaResult>> rows;
  for (std::uint64_t num_values :
       {4ull, 16ull, 256ull, 4096ull, 1ull << 16, 1ull << 20}) {
    const Round ceiling = 8 * ceil_log2(num_values);
    rows.emplace_back(num_values, run_beta(Alg3Algorithm(num_values), 3,
                                           num_values - 1, ceiling + 8));
    match_table.add(num_values, ceil_log2(num_values) - 1,
                    rows.back().second.last_decision_round, ceiling,
                    between_floor_and_ceiling({rows.back()}).pass);
  }
  match_table.print(os);
  return {{"Theorem 9", "beta binary sequences collide within 2^k+1 values",
           collisions_found(pairs)},
          {"Theorems 9 & 3", "lg|V|-1 <= Algorithm 3's decision <= 8lg|V|",
           between_floor_and_ceiling(rows)}};
}

// E10 -- the Section 1.5 results summary: the complexity of consensus as a
// function of detector strength.  Worst rounds after stabilization over 10
// seeds per column.
std::vector<Claim> e10_gap(std::ostream& os) {
  os << "=== E10: the detector-strength complexity gap (Section 1.5 "
        "summary) ===\n\n";
  os << "worst-case rounds after stabilization, by |V| (n = 8):\n\n";
  // `run(seed)` returns a run's summary and the rounds it took.
  auto worst = [](auto run) {
    Stats stats;
    Worst w;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto [summary, rounds] = run(seed);
      if (summary.verdict.solved()) {
        stats.add(rounds);
      } else {
        ++w.unsolved;
      }
    }
    w.rounds = stats.empty() ? -1 : stats.max();
    return w;
  };
  auto ecf = [&worst](const ConsensusAlgorithm& alg, std::uint64_t num_values,
                      DetectorSpec spec) {
    return worst([&](std::uint64_t seed) {
      const Round cst = 8;
      spec.r_acc = cst;
      const RunSummary s = run_direct(
          alg, random_initial_values(8, num_values, seed * 5),
          std::make_unique<WakeupService>(
              WakeupService::Options{.r_wake = cst, .seed = seed}),
          spec, make_truthful_policy(),
          std::make_unique<EcfAdversary>(EcfAdversary::Options{
              .r_cf = cst,
              .contention = EcfAdversary::ContentionMode::kCapture,
              .seed = seed * 3}),
          cst + 8000);
      return std::pair(s, static_cast<double>(s.rounds_after_cst));
    });
  };
  auto nocf = [&worst](std::uint64_t num_values) {
    return worst([num_values](std::uint64_t seed) {
      const RunSummary s = run_direct(
          Alg3Algorithm(num_values), random_initial_values(8, num_values, seed),
          std::make_unique<NoCm>(), DetectorSpec::ZeroAC(),
          make_truthful_policy(), total_loss(seed), 8000);
      return std::pair(s, static_cast<double>(s.verdict.last_decision_round));
    });
  };
  const std::uint64_t id_space = 16;
  AsciiTable table({"|V|", "lg|V|", "Alg1 maj-<>AC (const)",
                    "Alg2 0-<>AC (2lg|V|+2)", "Alg4 IDs |I|=16",
                    "Alg3 0-AC NoCF (8lg|V|)"});
  std::vector<GapRow> rows;
  for (std::uint64_t num_values :
       {2ull, 16ull, 256ull, 4096ull, 1ull << 16, 1ull << 20}) {
    const GapRow& row = rows.emplace_back(GapRow{
        num_values, ecf(Alg1Algorithm(), num_values, DetectorSpec::MajOAC(1)),
        ecf(Alg2Algorithm(num_values), num_values, DetectorSpec::ZeroOAC(1)),
        ecf(Alg4Algorithm(num_values, id_space), num_values,
            DetectorSpec::ZeroOAC(1)),
        nocf(num_values)});
    table.add(num_values, ceil_log2(num_values), row.alg1.rounds,
              row.alg2.rounds, row.alg4.rounds, row.alg3.rounds);
  }
  table.print(os);
  return {{"Section 1.5",
           "constant vs logarithmic: Algorithm 1 <= 2 < Algorithm 2 <= "
           "2lg|V|+2; Algorithm 4 flat once |V| > |I|; Algorithm 3 <= 8lg|V|",
           complexity_gap(rows, id_space)}};
}

// E11 -- Section 1.3: a randomized backoff protocol realizes the wake-up
// service.  Stabilization time is probabilistic; the consensus layer's
// safety never depends on it.
std::vector<Claim> e11_backoff(std::ostream& os) {
  os << "=== E11: realizing the wake-up service with randomized "
        "backoff (Section 1.3) ===\n\n";
  // The lock-in probe observes cm.stabilized_at() on a bare participant
  // set, below the World layer: there is no run to sweep.
  os << "--- backoff lock-in time vs n (rounds until exactly one "
        "process stays active) ---\n";
  AsciiTable table({"n", "median", "p90", "max", "seeds"});
  const std::size_t seeds = 40;
  std::vector<Stats> locks;
  for (std::size_t n : {2, 4, 8, 16, 32, 64, 128}) {
    Stats& lock = locks.emplace_back();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      BackoffCm cm(BackoffCm::Options{.seed = seed});
      const BitSet alive(n, /*all=*/true);
      std::vector<CmAdvice> advice;
      for (Round r = 1; r <= 5000 && cm.stabilized_at() == kNeverRound; ++r) {
        cm.advise(r, alive, advice);
      }
      if (cm.stabilized_at() != kNeverRound) lock.add(cm.stabilized_at());
    }
    table.add(n, lock.median(), lock.percentile(90), lock.max(),
              lock.count());
  }
  table.print(os);

  os << "\n--- consensus over the backoff manager + capture-effect "
        "radio (end-to-end realistic stack) ---\n";
  AsciiTable safety_table({"algorithm", "detector", "|V|", "seeds solved",
                           "safety ok", "decision round p90"});
  std::vector<RunRecord> runs;
  for (const auto& [alg, detector] :
       {std::pair(AlgKind::kAlg1, DetectorKind::kMajOAC),
        std::pair(AlgKind::kAlg2, DetectorKind::kZeroOAC)}) {
    SweepGrid grid =
        chaotic_grid(alg, detector, PolicyKind::kFlakyMajority, 0.9, 25);
    grid.base.cm = CmKind::kBackoff;
    grid.base.n = 12;
    grid.base.num_values = 256;
    grid.base.cst_target = 30;
    grid.base.max_rounds = 3000;
    grid.grid_seed = 11;
    const Sweep s = sweep(grid);
    const CellAggregate& cell = s.cells.front();
    safety_table.add(to_string(cell.spec.alg), to_string(cell.spec.detector),
                     cell.spec.num_values,
                     fraction(cell.runs - cell.termination_failures,
                              cell.runs),
                     always_safe(s.runs).pass,
                     cell.decision_round.empty()
                         ? -1.0
                         : cell.decision_round.percentile(90));
    append(runs, s);
  }
  safety_table.print(os);
  return {{"Section 1.3", "every seed's backoff manager locks in",
           all_lock_in(locks, seeds)},
          {"Section 1.3", "over backoff, safety holds in every run",
           always_safe(runs)}};
}

// E13 -- substrate validation: the reference-broadcast round synchronizer
// turns drifting clocks (Section 1.1) into the synchronized rounds the
// model presupposes (Section 1.3).
std::vector<Claim> e13_round_sync(std::ostream& os) {
  os << "=== E13: round-synchronization substrate (drifting clocks "
        "-> synchronized rounds) ===\n\n";
  std::vector<RunRecord> runs;
  auto point = [&runs](double rho, double beacon_loss, double round_length,
                       std::uint32_t seeds) {
    SweepGrid grid;
    grid.base = {.workload = WorkloadKind::kRoundSync, .n = 16,
                 .p_deliver = 1.0 - beacon_loss, .sync_rho = rho,
                 .sync_round_length = round_length};
    grid.seeds_per_cell = seeds;
    grid.grid_seed = 13;
    Sweep s = sweep(grid);
    append(runs, s);
    return std::move(s.cells.at(0));
  };
  os << "--- measured skew vs drift rate and beacon loss (epoch = "
        "1s, jitter = 10us, n = 16) ---\n";
  AsciiTable table({"rho", "beacon loss", "measured skew (us)", "bound (us)",
                    "within", "round agreement"});
  for (double rho : {1e-5, 1e-4, 1e-3}) {
    for (double loss : {0.0, 0.3, 0.6}) {
      const CellAggregate cell = point(rho, loss, 0.05, 10);
      table.add(rho, loss, cell.sync_skew_us.max(), cell.sync_bound_us.max(),
                cell.sync_bound_violations == 0, cell.sync_agreement.min());
    }
  }
  table.print(os);

  os << "\n--- how short can rounds get?  (rho = 1e-4, loss = 0.3) ---\n";
  AsciiTable length_table({"round length (ms)", "skew bound (ms)",
                           "guarded agreement", "usable"});
  for (double length : {0.0005, 0.002, 0.01, 0.05, 0.25}) {
    const CellAggregate cell = point(1e-4, 0.3, length, 6);
    const double bound = cell.sync_bound_us.max() * 1e-6;  // seconds
    length_table.add(length * 1e3, bound * 1e3, cell.sync_agreement.min(),
                     length > 2 * bound);
  }
  length_table.print(os);
  return {{"Section 1.3", "every point's skew stays within its bound",
           sync_within_bound(runs)},
          {"Section 1.2", "rounds over twice the skew bound fully agree",
           long_rounds_agree(runs)}};
}

// E14 -- the conclusion's multihop extension: broadcast over a multihop
// network with and without collision-detector feedback, clusterhead
// election, and flooding under crash faults.
std::vector<Claim> e14_multihop(std::ostream& os) {
  os << "=== E14: multihop broadcast with collision-detector "
        "feedback (conclusion's extension), on the exp/ engine ===\n\n";
  SweepGrid base;  // ECF maps to the harsh capture-effect link physics
  base.base = {.detector = DetectorKind::kZeroAC, .loss = LossKind::kEcf,
               .workload = WorkloadKind::kFlood};
  base.seeds_per_cell = 15;
  base.grid_seed = 7;

  os << "--- completion vs diameter (line networks, CD-backoff "
        "flooding) ---\n";
  SweepGrid grid = base;
  grid.topologies = {TopologyKind::kLine};
  grid.ns = {4, 8, 16, 32, 64};
  const Sweep lines = sweep(grid);
  AsciiTable table({"nodes", "diameter", "covered", "mean rounds", "p90",
                    "rounds/diameter"});
  std::vector<std::span<const RunRecord>> by_n;
  for (const CellAggregate& cell : lines.cells) {
    const double diam = mean_or_0(cell.diameter);
    const double mean = mean_or_0(cell.coverage_rounds);
    table.add(cell.spec.n, diam, fraction(cell.full_coverage, cell.mh_runs),
              mean,
              cell.coverage_rounds.empty()
                  ? 0.0
                  : cell.coverage_rounds.percentile(90),
              diam > 0 ? mean / diam : 0.0);
    by_n.push_back(lines.runs_of(cell.cell_index));
  }
  table.print(os);

  // The contrast is carried by the detector axis: under NoCD the backoff
  // rule never fires and flooding degenerates to fixed-p.
  os << "\n--- no-CD vs CD-backoff flooding on dense topologies "
        "(detector axis) ---\n";
  grid = base;
  grid.detectors = {DetectorKind::kNoCd, DetectorKind::kZeroAC};
  grid.topologies = {TopologyKind::kGrid, TopologyKind::kSingleHop,
                     TopologyKind::kRandomGeometric};
  grid.densities = {3.5};
  grid.base.n = 36;
  const Sweep dense = sweep(grid);
  AsciiTable dense_table({"topology", "n", "covered", "no-CD mean",
                          "CD-backoff mean", "speedup"});
  Verdict faster;
  // Cell order: detectors inner (no-CD, then CD), topologies outer.
  for (std::size_t c = 0; c < dense.cells.size(); c += 2) {
    const CellAggregate& nocd = dense.cells[c];
    const CellAggregate& cd = dense.cells[c + 1];
    const double slow = mean_or_0(nocd.coverage_rounds);
    const double fast = mean_or_0(cd.coverage_rounds);
    dense_table.add(to_string(nocd.spec.topology), nocd.spec.n,
                    fraction(cd.full_coverage, cd.mh_runs), slow, fast,
                    fast > 0 ? slow / fast : 0.0);
    if (faster.pass) {
      faster = cd_backoff_faster(dense.runs_of(c), dense.runs_of(c + 1));
    }
  }
  dense_table.print(os);

  os << "\n--- clusterhead election (MIS) across topologies ---\n";
  grid = base;
  grid.base.workload = WorkloadKind::kMis;
  grid.topologies = {TopologyKind::kRing, TopologyKind::kGrid,
                     TopologyKind::kRandomGeometric};
  grid.ns = {16, 36, 64};
  const Sweep mis = sweep(grid);
  AsciiTable mis_table({"topology", "n", "MIS size", "settle mean",
                        "violations", "msgs/node"});
  for (const CellAggregate& cell : mis.cells) {
    mis_table.add(to_string(cell.spec.topology), cell.spec.n,
                  mean_or_0(cell.mis_size), mean_or_0(cell.mis_settle_round),
                  cell.mis_violations, mean_or_0(cell.messages_per_node));
  }
  mis_table.print(os);

  os << "\n--- flooding under crash faults (Section 3.3 adversaries "
        "on the multihop executor) ---\n";
  grid = base;
  grid.topologies = {TopologyKind::kGrid};
  grid.ns = {16, 36};
  grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                 FaultKind::kScheduled};
  grid.crash_schedules = {"leaf-then-die", "source-dies"};
  grid.base.crash_p = 0.05;
  const Sweep crash = sweep(grid);
  AsciiTable crash_table({"fault", "schedule", "n", "crashes", "surv frac",
                          "covered", "cover mean"});
  for (const CellAggregate& cell : crash.cells) {
    // Non-scheduled cells repeat once per schedule name (the axis is inert
    // for them); print each combination once.
    const bool scheduled = cell.spec.fault == FaultKind::kScheduled;
    if (!scheduled && cell.spec.crash_schedule_name != "leaf-then-die") {
      continue;
    }
    crash_table.add(to_string(cell.spec.fault),
                    scheduled ? cell.spec.crash_schedule_name
                              : std::string("-"),
                    cell.spec.n, cell.mh_crashes_applied,
                    mean_or_0(cell.surviving_fraction),
                    fraction(cell.full_coverage, cell.mh_runs),
                    mean_or_0(cell.coverage_rounds));
  }
  crash_table.print(os);
  return {{"Section 1.1", "every line run covers; rounds grow with diameter",
           lines_covered(by_n)},
          {"Conclusion", "CD-backoff covers dense graphs faster than no-CD",
           faster},
          {"Conclusion", "MIS is independent and maximal in every run",
           mis_valid(mis.runs)},
          {"Section 3.3",
           "crashes are topology events: random and source-dies coverage is "
           "conditional, leaf-then-die leaves one covered survivor",
           crash_shapes(crash.runs, grid.seeds_per_cell)}};
}

// E15 -- ablation: detector BEHAVIOUR inside a fixed class.  Upper bounds
// must hold for every legal policy, so the nastiest members of each class
// run alongside the friendliest.  Every stabilization knob lands at CST,
// so the after-CST column is the theorem quantity.
std::vector<Claim> e15_policy_ablation(std::ostream& os) {
  os << "=== E15: detector-behaviour ablation (|V| = 256, n = 8, "
        "chaotic pre-CST phase, worst after-CST rounds over 12 seeds, "
        "CST = 10; 'ok' = all seeds solved within the bound) ===\n\n";
  // One table per algorithm: worst after-CST rounds per policy x class.
  // Two sub-grids because the engine has ONE spurious_p knob: the spurious
  // policy runs at 0.4 and flaky-majority at 0.9.
  auto ablate = [&os](AlgKind alg, const std::vector<DetectorKind>& detectors,
                      const std::vector<std::string>& headers,
                      Verdict (*bound)(std::span<const RunRecord>)) {
    const std::pair<std::vector<PolicyKind>, double> sub_grids[] = {
        {{PolicyKind::kTruthful, PolicyKind::kPreferNull,
          PolicyKind::kPreferCollision, PolicyKind::kSpurious},
         0.4},
        {{PolicyKind::kFlakyMajority}, 0.9},
    };
    std::map<std::pair<PolicyKind, DetectorKind>, std::string> cells;
    std::vector<RunRecord> runs;
    for (const auto& [policies, spurious_p] : sub_grids) {
      SweepGrid grid =
          chaotic_grid(alg, detectors[0], policies[0], spurious_p, 12);
      grid.base.num_values = 256;
      grid.base.cst_target = 10;
      grid.detectors = detectors;
      grid.policies = policies;
      const Sweep s = sweep(grid);
      for (const CellAggregate& cell : s.cells) {
        const bool ok = bound(s.runs_of(cell.cell_index)).pass;
        std::string text = numfmt::fixed(
            cell.rounds_after_cst.empty() ? -1.0 : cell.rounds_after_cst.max(),
            0);
        text += ok ? " ok" : " VIOLATED";
        cells[{cell.spec.policy, cell.spec.detector}] = std::move(text);
      }
      append(runs, s);
    }
    AsciiTable table(headers);
    for (PolicyKind policy :
         {PolicyKind::kTruthful, PolicyKind::kPreferNull,
          PolicyKind::kPreferCollision, PolicyKind::kSpurious,
          PolicyKind::kFlakyMajority}) {
      std::vector<std::string> row = {
          std::string(to_string(policy)) +
          (policy == PolicyKind::kSpurious        ? "(0.4)"
           : policy == PolicyKind::kFlakyMajority ? "(0.9)"
                                                  : "")};
      for (DetectorKind d : detectors) row.push_back(cells.at({policy, d}));
      table.add_row(std::move(row));
    }
    table.print(os);
    return bound(runs);
  };
  os << "--- Algorithm 2 across policies x completeness levels (bound = "
     << Alg2Algorithm::round_bound_after_cst(256) << ") ---\n";
  Verdict alg2 = ablate(AlgKind::kAlg2,
                        {DetectorKind::kOAC, DetectorKind::kMajOAC,
                         DetectorKind::kHalfOAC, DetectorKind::kZeroOAC},
                        {"policy", "<>AC (complete)", "maj-<>AC", "half-<>AC",
                         "0-<>AC"},
                        theorem2_bound);
  os << "\n--- Algorithm 1 (needs maj-<>AC; bound = 2) ---\n";
  Verdict alg1 = ablate(AlgKind::kAlg1,
                        {DetectorKind::kOAC, DetectorKind::kMajOAC},
                        {"policy", "<>AC (complete)", "maj-<>AC"},
                        theorem1_bound);
  return {{"Theorem 2", "every policy x class within Algorithm 2's bound",
           std::move(alg2)},
          {"Theorem 1", "every policy x class within Algorithm 1's bound",
           std::move(alg1)}};
}

}  // namespace

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = {
      {"E1", e1_detector_classes}, {"E2", e2_alg1},
      {"E3", e3_alg2},             {"E4", e4_nonanon},
      {"E5", e5_alg3},             {"E6", e6_nocd},
      {"E7", e7_halfac},           {"E8", e8_oac_nocf},
      {"E9", e9_ac_nocf},          {"E10", e10_gap},
      {"E11", e11_backoff},        {"E13", e13_round_sync},
      {"E14", e14_multihop},       {"E15", e15_policy_ablation},
  };
  return table;
}

}  // namespace ccd::exp
