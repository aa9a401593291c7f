#include "exp/aggregator.hpp"

#include <ostream>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"
#include "util/table.hpp"

namespace ccd::exp {

namespace {

// One fixed numeric format everywhere so reports are diffable and the
// thread-invariance guarantee extends to the rendered bytes.
void append_fixed4(std::string& out, double d) {
  numfmt::append_fixed(out, d, 4);
}

std::string fixed4(double d) { return numfmt::fixed(d, 4); }

/// Append `,"key":value` for an integer member.
void append_member(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  numfmt::append_int(out, value);
}

void append_summary_json(std::string& out, const char* key, const Stats& s) {
  out += ",\"";
  out += key;
  out += "\":";
  if (s.empty()) {
    out += "null";
    return;
  }
  out += "{\"count\":";
  numfmt::append_int(out, s.count());
  out += ",\"min\":";
  append_fixed4(out, s.min());
  out += ",\"mean\":";
  append_fixed4(out, s.mean());
  out += ",\"p50\":";
  append_fixed4(out, s.percentile(50));
  out += ",\"p99\":";
  append_fixed4(out, s.percentile(99));
  out += ",\"max\":";
  append_fixed4(out, s.max());
  out += '}';
}

// (append-style throughout: chained std::string operator+ trips a GCC 12
// -Wrestrict false positive in optimized builds)
void append_summary_csv(std::string& out, const Stats& s) {
  if (s.empty()) {
    out += ",,,,";  // min,mean,p50,p99,max all empty
    return;
  }
  append_fixed4(out, s.min());
  out += ',';
  append_fixed4(out, s.mean());
  out += ',';
  append_fixed4(out, s.percentile(50));
  out += ',';
  append_fixed4(out, s.percentile(99));
  out += ',';
  append_fixed4(out, s.max());
}

}  // namespace

const std::vector<CellStatsField>& cell_stats_fields() {
  static const std::vector<CellStatsField> kFields = {
      {"decision_round", &CellAggregate::decision_round},
      {"rounds_after_cst", &CellAggregate::rounds_after_cst},
      {"rounds_executed", &CellAggregate::rounds_executed},
      {"surviving_fraction", &CellAggregate::surviving_fraction},
      {"coverage_rounds", &CellAggregate::coverage_rounds},
      {"coverage_fraction", &CellAggregate::coverage_fraction},
      {"mis_size", &CellAggregate::mis_size},
      {"mis_settle_round", &CellAggregate::mis_settle_round},
      {"messages_per_node", &CellAggregate::messages_per_node},
      {"diameter", &CellAggregate::diameter},
      {"sync_skew_us", &CellAggregate::sync_skew_us},
      {"sync_bound_us", &CellAggregate::sync_bound_us},
      {"sync_agreement", &CellAggregate::sync_agreement},
  };
  return kFields;
}

std::uint64_t stats_bytes_retained(const std::vector<CellAggregate>& cells) {
  std::uint64_t bytes = 0;
  for (const CellAggregate& cell : cells) {
    for (const CellStatsField& f : cell_stats_fields()) {
      bytes += (cell.*(f.member)).bytes_retained();
    }
  }
  return bytes;
}

std::string cells_to_dist_json(const SweepGrid& grid,
                               const std::vector<CellAggregate>& cells) {
  std::string out = "{\"format\":\"ccd-dist-v1\",\"grid_fingerprint\":\"";
  out += jsonu::fingerprint_to_hex(grid.fingerprint());
  out += '"';
  append_member(out, "grid_seed", grid.grid_seed);
  append_member(out, "seeds_per_cell", grid.seeds_per_cell);
  append_member(out, "num_cells", grid.num_cells());
  out += ",\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellAggregate& cell = cells[c];
    if (c > 0) out += ',';
    out += "{\"cell\":";
    numfmt::append_int(out, cell.cell_index);
    out += ",\"spec\":";
    cell.spec.append_cell_key(out);
    append_member(out, "runs", cell.runs);
    out += ",\"metrics\":{";
    bool first = true;
    for (const CellStatsField& f : cell_stats_fields()) {
      const Stats& s = cell.*(f.member);
      if (s.empty()) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      out += f.name;
      out += "\":";
      append_stats_json(out, s);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

CellAggregate empty_cell_aggregate(const SweepGrid& grid,
                                   std::size_t cell_index) {
  CellAggregate cell;
  cell.cell_index = cell_index;
  cell.spec = grid.spec_for_cell(cell_index);
  return cell;
}

void accumulate_run(CellAggregate& cell, const RunRecord& r) {
  ++cell.runs;

  // Consensus properties: meaningful for consensus workloads and for the
  // phase-2 consensus of mis-then-consensus (where a head-less MIS phase
  // honestly counts as a termination failure).
  const bool has_consensus_phase =
      r.spec.workload == WorkloadKind::kConsensus ||
      r.spec.workload == WorkloadKind::kMisThenConsensus;
  if (has_consensus_phase) {
    const ConsensusVerdict& v = r.summary.verdict;
    if (v.solved()) ++cell.solved;
    if (!v.agreement) ++cell.agreement_failures;
    if (!v.strong_validity || !v.uniform_validity) ++cell.validity_failures;
    if (!v.termination) ++cell.termination_failures;
    cell.crashed_processes += r.summary.result.num_crashed;
    cell.rounds_executed.add(
        static_cast<double>(r.summary.result.rounds_executed));
    if (v.solved()) {
      cell.decision_round.add(static_cast<double>(v.last_decision_round));
      if (r.summary.cst != kNeverRound) {
        cell.rounds_after_cst.add(
            static_cast<double>(r.summary.rounds_after_cst));
      }
    }
  }

  if (r.mh.ran) {
    ++cell.mh_runs;
    if (!r.mh.connected) ++cell.disconnected;
    if (r.mh.connected) cell.diameter.add(r.mh.diameter);
    cell.messages_per_node.add(r.mh.messages_per_node);
    cell.mh_crashes_applied += r.mh.crashes_applied;
    if (r.mh.phase2_skipped) ++cell.phase2_skipped;
    cell.surviving_fraction.add(
        r.spec.n > 0 ? static_cast<double>(r.mh.survivors) /
                           static_cast<double>(r.spec.n)
                     : 0.0);
    if (r.spec.workload == WorkloadKind::kFlood) {
      if (r.mh.full_coverage_round != kNeverRound) {
        ++cell.full_coverage;
        cell.coverage_rounds.add(
            static_cast<double>(r.mh.full_coverage_round));
      }
      cell.coverage_fraction.add(
          r.spec.n > 0 ? static_cast<double>(r.mh.covered) /
                             static_cast<double>(r.spec.n)
                       : 0.0);
    } else if (r.spec.workload == WorkloadKind::kMis ||
               r.spec.workload == WorkloadKind::kMisThenConsensus) {
      if (!r.mh.mis_independent || !r.mh.mis_maximal) ++cell.mis_violations;
      cell.mis_size.add(static_cast<double>(r.mh.mis_size));
      if (r.mh.mis_settle_round != kNeverRound) {
        cell.mis_settle_round.add(
            static_cast<double>(r.mh.mis_settle_round));
      }
    }
    // Consensus-over-a-topology runs carry only the shared metrics above
    // (connectivity, diameter, message cost, crash accounting); their
    // verdicts are in the consensus group.
  }

  if (r.sync.ran) {
    ++cell.sync_runs;
    if (!r.sync.within_bound) ++cell.sync_bound_violations;
    cell.sync_skew_us.add(r.sync.max_skew * 1e6);
    cell.sync_bound_us.add(r.sync.skew_bound * 1e6);
    cell.sync_agreement.add(r.sync.round_agreement);
  }
}

void merge_cell_aggregate(CellAggregate& dst, const CellAggregate& src) {
  dst.runs += src.runs;
  dst.solved += src.solved;
  dst.agreement_failures += src.agreement_failures;
  dst.validity_failures += src.validity_failures;
  dst.termination_failures += src.termination_failures;
  dst.crashed_processes += src.crashed_processes;
  dst.mh_runs += src.mh_runs;
  dst.disconnected += src.disconnected;
  dst.full_coverage += src.full_coverage;
  dst.mis_violations += src.mis_violations;
  dst.mh_crashes_applied += src.mh_crashes_applied;
  dst.phase2_skipped += src.phase2_skipped;
  dst.decision_round.merge_from(src.decision_round);
  dst.rounds_after_cst.merge_from(src.rounds_after_cst);
  dst.rounds_executed.merge_from(src.rounds_executed);
  dst.surviving_fraction.merge_from(src.surviving_fraction);
  dst.coverage_rounds.merge_from(src.coverage_rounds);
  dst.coverage_fraction.merge_from(src.coverage_fraction);
  dst.mis_size.merge_from(src.mis_size);
  dst.mis_settle_round.merge_from(src.mis_settle_round);
  dst.messages_per_node.merge_from(src.messages_per_node);
  dst.diameter.merge_from(src.diameter);
  dst.sync_runs += src.sync_runs;
  dst.sync_bound_violations += src.sync_bound_violations;
  dst.sync_skew_us.merge_from(src.sync_skew_us);
  dst.sync_bound_us.merge_from(src.sync_bound_us);
  dst.sync_agreement.merge_from(src.sync_agreement);
}

std::vector<CellAggregate> aggregate(const SweepGrid& grid,
                                     const std::vector<RunRecord>& records) {
  std::vector<CellAggregate> cells;
  cells.reserve(grid.num_cells());
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    cells.push_back(empty_cell_aggregate(grid, c));
  }
  for (const RunRecord& r : records) accumulate_run(cells.at(r.cell_index), r);
  return cells;
}

std::string aggregates_to_json(const SweepGrid& grid,
                               const std::vector<CellAggregate>& cells) {
  std::string out = "{\"grid_seed\":";
  numfmt::append_int(out, grid.grid_seed);
  append_member(out, "seeds_per_cell", grid.seeds_per_cell);
  append_member(out, "num_cells", grid.num_cells());
  append_member(out, "num_runs", grid.num_runs());
  out += ",\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellAggregate& cell = cells[c];
    if (c > 0) out += ',';
    out += "{\"cell\":";
    numfmt::append_int(out, cell.cell_index);
    out += ",\"spec\":";
    cell.spec.append_cell_key(out);
    append_member(out, "runs", cell.runs);
    append_member(out, "solved", cell.solved);
    append_member(out, "agreement_failures", cell.agreement_failures);
    append_member(out, "validity_failures", cell.validity_failures);
    append_member(out, "termination_failures", cell.termination_failures);
    append_member(out, "crashed_processes", cell.crashed_processes);
    append_summary_json(out, "decision_round", cell.decision_round);
    append_summary_json(out, "rounds_after_cst", cell.rounds_after_cst);
    append_summary_json(out, "rounds_executed", cell.rounds_executed);
    if (cell.mh_runs > 0) {
      out += ",\"mh\":{\"runs\":";
      numfmt::append_int(out, cell.mh_runs);
      append_member(out, "disconnected", cell.disconnected);
      append_member(out, "full_coverage", cell.full_coverage);
      append_member(out, "mis_violations", cell.mis_violations);
      append_member(out, "crashes_applied", cell.mh_crashes_applied);
      append_member(out, "phase2_skipped", cell.phase2_skipped);
      append_summary_json(out, "surviving_fraction", cell.surviving_fraction);
      append_summary_json(out, "coverage_rounds", cell.coverage_rounds);
      append_summary_json(out, "coverage_fraction", cell.coverage_fraction);
      append_summary_json(out, "mis_size", cell.mis_size);
      append_summary_json(out, "mis_settle_round", cell.mis_settle_round);
      append_summary_json(out, "messages_per_node", cell.messages_per_node);
      append_summary_json(out, "diameter", cell.diameter);
      out += '}';
    }
    if (cell.sync_runs > 0) {
      out += ",\"sync\":{\"runs\":";
      numfmt::append_int(out, cell.sync_runs);
      append_member(out, "bound_violations", cell.sync_bound_violations);
      append_summary_json(out, "skew_us", cell.sync_skew_us);
      append_summary_json(out, "bound_us", cell.sync_bound_us);
      append_summary_json(out, "agreement", cell.sync_agreement);
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string aggregates_to_csv(const std::vector<CellAggregate>& cells) {
  std::string out =
      "cell,alg,detector,policy,cm,loss,fault,workload,topology,density,"
      "n,num_values,cst_target,"
      "runs,solved,agreement_failures,validity_failures,"
      "termination_failures,crashed_processes,"
      "decision_min,decision_mean,decision_p50,decision_p99,decision_max,"
      "after_cst_min,after_cst_mean,after_cst_p50,after_cst_p99,"
      "after_cst_max,"
      "mh_runs,disconnected,full_coverage,mis_violations,"
      "mh_crashes_applied,phase2_skipped,"
      "coverage_mean,coverage_fraction_mean,mis_size_mean,"
      "mis_settle_mean,messages_per_node_mean,diameter_mean,"
      "surviving_fraction_mean\n";
  for (const CellAggregate& cell : cells) {
    const ScenarioSpec& s = cell.spec;
    numfmt::append_int(out, cell.cell_index);
    for (const char* token :
         {to_string(s.alg), to_string(s.detector), to_string(s.policy),
          to_string(s.cm), to_string(s.loss), to_string(s.fault),
          to_string(s.workload), to_string(s.topology)}) {
      out += ',';
      out += token;
    }
    out += ',';
    append_fixed4(out, s.density);
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(s.n), s.num_values,
          static_cast<std::uint64_t>(s.cst_target),
          static_cast<std::uint64_t>(cell.runs),
          static_cast<std::uint64_t>(cell.solved),
          static_cast<std::uint64_t>(cell.agreement_failures),
          static_cast<std::uint64_t>(cell.validity_failures),
          static_cast<std::uint64_t>(cell.termination_failures),
          static_cast<std::uint64_t>(cell.crashed_processes)}) {
      out += ',';
      numfmt::append_int(out, v);
    }
    out += ',';
    append_summary_csv(out, cell.decision_round);
    out += ',';
    append_summary_csv(out, cell.rounds_after_cst);
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(cell.mh_runs),
          static_cast<std::uint64_t>(cell.disconnected),
          static_cast<std::uint64_t>(cell.full_coverage),
          static_cast<std::uint64_t>(cell.mis_violations),
          static_cast<std::uint64_t>(cell.mh_crashes_applied),
          static_cast<std::uint64_t>(cell.phase2_skipped)}) {
      out += ',';
      numfmt::append_int(out, v);
    }
    for (const Stats* st :
         {&cell.coverage_rounds, &cell.coverage_fraction, &cell.mis_size,
          &cell.mis_settle_round, &cell.messages_per_node, &cell.diameter,
          &cell.surviving_fraction}) {
      out += ',';
      if (!st->empty()) append_fixed4(out, st->mean());
    }
    out += '\n';
  }
  return out;
}

void print_summary(std::ostream& os, const SweepGrid& grid,
                   const std::vector<CellAggregate>& cells) {
  auto consensus_phase = [](const CellAggregate& cell) {
    return cell.spec.workload == WorkloadKind::kConsensus ||
           cell.spec.workload == WorkloadKind::kMisThenConsensus;
  };
  std::size_t runs = 0, consensus_runs = 0, solved = 0, agreement = 0,
              validity = 0, termination = 0;
  std::size_t mh_runs = 0, flood_runs = 0, full_coverage = 0,
              mis_violations = 0, disconnected = 0, crashes = 0,
              phase2_skipped = 0;
  std::size_t sync_runs = 0, sync_violations = 0;
  for (const CellAggregate& cell : cells) {
    runs += cell.runs;
    sync_runs += cell.sync_runs;
    sync_violations += cell.sync_bound_violations;
    if (consensus_phase(cell)) {
      consensus_runs += cell.runs;
      solved += cell.solved;
      agreement += cell.agreement_failures;
      validity += cell.validity_failures;
      termination += cell.termination_failures;
    }
    mh_runs += cell.mh_runs;
    if (cell.spec.workload == WorkloadKind::kFlood) {
      flood_runs += cell.mh_runs;
      full_coverage += cell.full_coverage;
    }
    mis_violations += cell.mis_violations;
    disconnected += cell.disconnected;
    crashes += cell.mh_crashes_applied;
    phase2_skipped += cell.phase2_skipped;
  }
  os << "grid: " << cells.size() << " cells x " << grid.seeds_per_cell
     << " seeds = " << runs << " runs (grid_seed " << grid.grid_seed
     << ")\n";
  if (consensus_runs > 0) {
    os << "solved " << solved << "/" << consensus_runs
       << "; failures: agreement " << agreement << ", validity " << validity
       << ", termination " << termination << "\n";
  }
  if (mh_runs > 0) {
    os << "multihop: " << mh_runs << " runs";
    if (flood_runs > 0) {
      os << ", full coverage " << full_coverage << "/" << flood_runs;
    }
    os << ", MIS violations " << mis_violations << ", disconnected "
       << disconnected;
    if (crashes > 0) os << ", crashes applied " << crashes;
    if (phase2_skipped > 0) os << ", phase-2 skipped " << phase2_skipped;
    os << "\n";
  }
  if (sync_runs > 0) {
    os << "round-sync: " << sync_runs << " runs, skew-bound violations "
       << sync_violations << "\n";
  }
  os << "\n";

  // A cell is "perfect" when its workload's own success criterion held in
  // every run; big grids print only the imperfect ones.
  auto perfect = [&](const CellAggregate& cell) {
    if (cell.disconnected > 0) return false;
    if (consensus_phase(cell) &&
        (cell.solved != cell.runs || cell.agreement_failures != 0)) {
      return false;
    }
    if (cell.spec.workload == WorkloadKind::kFlood &&
        cell.full_coverage != cell.mh_runs) {
      return false;
    }
    return cell.mis_violations == 0;
  };

  if (consensus_runs > 0) {
    AsciiTable table({"cell", "alg", "detector", "cm", "loss", "n", "solved",
                      "agree-fail", "decide-mean", "after-CST max"});
    for (const CellAggregate& cell : cells) {
      if (!consensus_phase(cell)) continue;
      if (cells.size() > 24 && perfect(cell)) continue;
      table.add(cell.cell_index, to_string(cell.spec.alg),
                to_string(cell.spec.detector), to_string(cell.spec.cm),
                to_string(cell.spec.loss), cell.spec.n,
                std::to_string(cell.solved) + "/" + std::to_string(cell.runs),
                cell.agreement_failures,
                cell.decision_round.empty()
                    ? std::string("-")
                    : fixed4(cell.decision_round.mean()),
                cell.rounds_after_cst.empty()
                    ? std::string("-")
                    : fixed4(cell.rounds_after_cst.max()));
    }
    table.print(os);
  }

  if (mh_runs > 0) {
    AsciiTable table({"cell", "workload", "topology", "loss", "fault", "n",
                      "density", "covered", "cover-mean", "MIS-mean",
                      "msgs/node", "surv-mean", "diam-mean"});
    for (const CellAggregate& cell : cells) {
      if (cell.mh_runs == 0) continue;
      if (cells.size() > 24 && perfect(cell)) continue;
      const bool flood = cell.spec.workload == WorkloadKind::kFlood;
      table.add(
          cell.cell_index, to_string(cell.spec.workload),
          to_string(cell.spec.topology), to_string(cell.spec.loss),
          to_string(cell.spec.fault), cell.spec.n, fixed4(cell.spec.density),
          flood ? std::to_string(cell.full_coverage) + "/" +
                      std::to_string(cell.mh_runs)
                : std::string("-"),
          cell.coverage_rounds.empty() ? std::string("-")
                                       : fixed4(cell.coverage_rounds.mean()),
          cell.mis_size.empty() ? std::string("-")
                                : fixed4(cell.mis_size.mean()),
          cell.messages_per_node.empty()
              ? std::string("-")
              : fixed4(cell.messages_per_node.mean()),
          cell.surviving_fraction.empty()
              ? std::string("-")
              : fixed4(cell.surviving_fraction.mean()),
          cell.diameter.empty() ? std::string("-")
                                : fixed4(cell.diameter.mean()));
    }
    table.print(os);
  }

  if (sync_runs > 0) {
    AsciiTable table({"cell", "n", "rho", "round-len(s)", "skew-max(us)",
                      "bound(us)", "agreement", "violations"});
    for (const CellAggregate& cell : cells) {
      if (cell.sync_runs == 0) continue;
      table.add(cell.cell_index, cell.spec.n, cell.spec.sync_rho,
                fixed4(cell.spec.sync_round_length),
                cell.sync_skew_us.empty() ? std::string("-")
                                          : fixed4(cell.sync_skew_us.max()),
                cell.sync_bound_us.empty() ? std::string("-")
                                           : fixed4(cell.sync_bound_us.max()),
                cell.sync_agreement.empty()
                    ? std::string("-")
                    : fixed4(cell.sync_agreement.min()),
                cell.sync_bound_violations);
    }
    table.print(os);
  }
}

}  // namespace ccd::exp
