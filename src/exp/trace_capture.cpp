#include "exp/trace_capture.hpp"

#include "util/flat_json.hpp"

namespace ccd::exp {

namespace {

void append_u32_array(std::string& out,
                      const std::vector<std::uint32_t>& xs) {
  out += "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(xs[i]);
  }
  out += "]";
}

std::string advice_string(const std::vector<CdAdvice>& advice) {
  std::string s;
  s.reserve(advice.size());
  for (CdAdvice a : advice) s += a == CdAdvice::kCollision ? '+' : '.';
  return s;
}

std::string advice_string(const std::vector<CmAdvice>& advice) {
  std::string s;
  s.reserve(advice.size());
  for (CmAdvice a : advice) s += a == CmAdvice::kActive ? 'A' : '.';
  return s;
}

}  // namespace

std::string execution_log_to_json(const ExecutionLog& log) {
  std::string out = "{";
  out += "\"num_processes\":" + std::to_string(log.num_processes());
  out += ",\"num_rounds\":" + std::to_string(log.num_rounds());
  out += ",\"views_recorded\":";
  out += log.views_recorded() ? "true" : "false";

  out += ",\"decisions\":[";
  for (std::size_t i = 0; i < log.decisions().size(); ++i) {
    const DecisionRecord& d = log.decisions()[i];
    if (i > 0) out += ",";
    out += "{\"process\":" + std::to_string(d.process);
    out += ",\"round\":" + std::to_string(d.round);
    out += ",\"value\":" + std::to_string(d.value) + "}";
  }
  out += "],\"crashes\":[";
  for (std::size_t i = 0; i < log.crashes().size(); ++i) {
    const CrashRecord& c = log.crashes()[i];
    if (i > 0) out += ",";
    out += "{\"process\":" + std::to_string(c.process);
    out += ",\"round\":" + std::to_string(c.round) + "}";
  }
  out += "]";

  if (log.views_recorded()) {
    out += ",\"initial_values\":[";
    for (std::size_t i = 0; i < log.num_processes(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(log.view(static_cast<ProcessId>(i)).initial_value);
    }
    out += "]";
  }

  out += ",\"rounds\":[";
  for (Round r = 1; r <= log.num_rounds(); ++r) {
    const TransmissionRound& tr = log.transmission().at(r);
    if (r > 1) out += ",";
    out += "{\"round\":" + std::to_string(r);
    out += ",\"broadcasters\":" + std::to_string(tr.broadcaster_count);
    out += ",\"receive_counts\":";
    append_u32_array(out, tr.receive_count);
    out += ",\"cd\":" + jsonu::quote(advice_string(log.cd_trace().at(r)));
    out += ",\"cm\":" + jsonu::quote(advice_string(log.cm_trace().at(r)));
    if (log.views_recorded()) {
      out += ",\"views\":[";
      for (std::size_t i = 0; i < log.num_processes(); ++i) {
        const RoundView& v =
            log.view(static_cast<ProcessId>(i)).rounds.at(r - 1);
        if (i > 0) out += ",";
        out += "{\"sent\":";
        out += v.sent ? jsonu::quote(to_string(*v.sent)) : "null";
        out += ",\"received\":[";
        for (std::size_t m = 0; m < v.received.size(); ++m) {
          if (m > 0) out += ",";
          out += jsonu::quote(to_string(v.received[m]));
        }
        out += "],\"crashed\":";
        out += v.crashed ? "true" : "false";
        out += "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::vector<TracedRun> rerun_cell(const SweepGrid& grid,
                                  std::size_t cell_index) {
  std::vector<TracedRun> runs;
  runs.reserve(grid.seeds_per_cell);
  RunScenarioOptions options;
  options.capture_log = true;
  for (std::uint32_t s = 0; s < grid.seeds_per_cell; ++s) {
    TracedRun traced;
    traced.run_index = cell_index * grid.seeds_per_cell + s;
    traced.spec = grid.spec_for_run(traced.run_index);
    ScenarioOutcome outcome = WorldFactory::run_scenario(traced.spec, options);
    traced.summary = std::move(outcome.summary);
    traced.mh = std::move(outcome.mh);
    traced.sync = outcome.sync;
    traced.log = std::move(outcome.log);
    traced.phase2_log = std::move(outcome.phase2_log);
    runs.push_back(std::move(traced));
  }
  return runs;
}

std::string traced_runs_to_json(const SweepGrid& grid, std::size_t cell_index,
                                const std::vector<TracedRun>& runs) {
  std::string out = "{\"format\":\"ccd-cell-trace-v1\"";
  out += ",\"cell\":" + std::to_string(cell_index);
  out += ",\"spec\":" + grid.spec_for_cell(cell_index).to_json();
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TracedRun& run = runs[i];
    if (i > 0) out += ",";
    out += "{\"run_index\":" + std::to_string(run.run_index);
    out += ",\"seed\":" + std::to_string(run.spec.seed);
    const ConsensusVerdict& v = run.summary.verdict;
    out += ",\"solved\":";
    out += v.solved() ? "true" : "false";
    out += ",\"rounds_executed\":" +
           std::to_string(run.summary.result.rounds_executed);
    if (run.mh.ran) {
      out += ",\"mh_rounds\":" + std::to_string(run.mh.rounds_executed);
      out += ",\"survivors\":" + std::to_string(run.mh.survivors);
    }
    if (run.sync.ran) {
      out += ",\"sync_skew_us\":" +
             jsonu::format_double(run.sync.max_skew * 1e6);
      out += ",\"sync_agreement\":" +
             jsonu::format_double(run.sync.round_agreement);
    }
    if (run.log) {
      out += ",\"log\":" + execution_log_to_json(*run.log);
    }
    if (run.phase2_log) {
      out += ",\"phase2_log\":" + execution_log_to_json(*run.phase2_log);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace ccd::exp
