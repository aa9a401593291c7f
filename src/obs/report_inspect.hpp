// Report inspection: the library behind the ccd_report CLI.
//
// Loads the JSON artifacts the sweep pipeline emits and turns them into
// human-oriented views and machine-checkable diffs:
//
//   render_report  per-cell distribution view (histogram bars, exact
//                  p50/p90/p99/p99.9, tail mass) of a ccd-dist-v1 file, a
//                  shard report (ccd-shard-report-v2), an aggregate
//                  report, or a perf sidecar.
//   diff_reports   cell-by-cell, metric-by-metric comparison of two such
//                  artifacts with keyed mismatch output.
//   export_dist    canonicalize a dist/shard artifact into ccd-dist-v1.
//   diff_traces    align two --rerun-cell ExecutionLog dumps
//                  (ccd-cell-trace-v1) round by round: first divergent
//                  round plus per-round view/advice/decision deltas.
//   diff_bench     compare two ccd-bench-v1 files (sweep throughput or
//                  lane bench; single object or the CI's JSON array) and
//                  flag rate regressions past a threshold -- the CI bench
//                  regression gate.
//
// Lives in obs/ (depends only on util/), so the layer DAG stays intact:
// the inspector never needs the engine or the exp layer -- every input is
// a serialized artifact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ccd::obs {

struct InspectOptions {
  int bar_width = 40;            ///< widest histogram bar, in characters
  int max_bins = 24;             ///< coalesce histograms wider than this
  std::optional<double> tail_over;       ///< report tail mass above this
  std::optional<std::uint64_t> only_cell;
  std::string only_metric;       ///< empty = all metrics
};

/// Render a distribution view of any supported report artifact into *out.
/// Returns false with a keyed *error on malformed/unsupported input.
bool render_report(const std::string& json, const InspectOptions& options,
                   std::string* out, std::string* error);

/// Keyed cell-by-cell diff of two report artifacts (same kind on both
/// sides).  *differs is set iff any cell/metric/counter mismatches; the
/// rendered mismatches (or a match summary) land in *out.
bool diff_reports(const std::string& a_json, const std::string& b_json,
                  std::string* out, bool* differs, std::string* error);

/// Re-emit a dist or shard-report artifact as canonical ccd-dist-v1.
bool export_dist(const std::string& json, std::string* out,
                 std::string* error);

/// Round-by-round alignment of two ccd-cell-trace-v1 dumps.  Reports the
/// first divergent round per run pair plus what diverged (broadcasters,
/// receive counts, cd/cm advice, per-process views, decisions, crashes).
bool diff_traces(const std::string& a_json, const std::string& b_json,
                 std::string* out, bool* differs, std::string* error);

/// Compare two ccd-bench-v1 artifacts.  Rate metrics dropping more than
/// max_regress_pct percent from old to new set *regressed (the CI gate
/// exits nonzero on it).  Entries are matched by grid name (sweep
/// throughput) or config+n (lane bench); lane-bench absolute rates are
/// reported but only the machine-relative speedup is gated.
bool diff_bench(const std::string& old_json, const std::string& new_json,
                double max_regress_pct, std::string* out, bool* regressed,
                std::string* error);

}  // namespace ccd::obs
