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
//   diff_traces    align two --rerun-cell ExecutionLog dumps
//                  (ccd-cell-trace-v1) round by round: first divergent
//                  round plus per-round view/advice/decision deltas.
//   diff_bench     compare two ccd-bench-v2 files (ccd_bench output)
//                  entry by entry and flag medians that fall past the
//                  baseline's bound -- the CI bench regression gate.
//
// Lives in obs/ (it depends on util/ and reads sidecars through
// obs/perf_sidecar), so the layer DAG stays intact: the inspector never
// needs the engine or the exp layer -- every input is a serialized
// artifact.
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

/// Round-by-round alignment of two ccd-cell-trace-v1 dumps.  Reports the
/// first divergent round per run pair plus what diverged (broadcasters,
/// receive counts, cd/cm advice, per-process views, decisions, crashes).
bool diff_traces(const std::string& a_json, const std::string& b_json,
                 std::string* out, bool* differs, std::string* error);

/// Compare two ccd-bench-v2 artifacts entry by entry (matched by name).
/// A baseline entry with a `bound` is gated: *regressed is set when the new
/// median is missing, not a finite number, or lower than the baseline
/// median by more than the bound (a fraction in (0, 1]).  Entries without
/// a bound are shown only.  Returns false with *error on malformed input,
/// including a baseline bound outside (0, 1].
bool diff_bench(const std::string& old_json, const std::string& new_json,
                std::string* out, bool* regressed, std::string* error);

}  // namespace ccd::obs
