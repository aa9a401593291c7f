// Shard reports: the partial result a shard worker emits, and the merge
// that recombines K of them into the exact full-grid aggregates.
//
// A report ("ccd-shard-report-v2") serializes each owned cell's
// CellAggregate with its statistics in full -- {"h":[key,count,...]}
// sparse histogram bins for integer-valued metrics, {"raw":[...]} sample
// buffers (lossless shortest-round-trip doubles) for the real-valued
// opt-ins -- not as pre-rendered summaries.  `ccd_sweep --merge` rebuilds
// every Stats exactly (bin addition / add() replay) and hands the merged
// cells to the same aggregates_to_json / aggregates_to_csv renderers every
// other ccd_sweep mode uses.  The merged report is byte-identical to a
// single-process full-grid run; a ctest target and a CI smoke step both
// enforce this.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/shard_plan.hpp"

namespace ccd::exp {

struct ShardReport {
  /// Identity: which shard of which plan produced this, over which grid.
  ShardSpec shard;
  /// Aggregates for exactly the cells the shard owns, ascending cell index.
  std::vector<CellAggregate> cells;

  /// "ccd-shard-report-v2" JSON; the spec's owned cells ride in
  /// "cell_list".
  std::string to_json() const;
  static std::optional<ShardReport> from_json(const std::string& json,
                                              std::string* error = nullptr);
};

/// One cell's aggregate as a flat JSON object (counters + per-statistic
/// histogram/raw encodings).  Exposed for the checkpoint file, which is a
/// JSONL stream of these.
std::string cell_aggregate_to_json(const CellAggregate& cell);
/// Inverse; the spec member is NOT serialized (cell identity is derived
/// from the grid at merge time), so `grid` supplies it.
std::optional<CellAggregate> cell_aggregate_from_json(const SweepGrid& grid,
                                                      std::string_view json,
                                                      std::string* error);
/// The same from an already-parsed object, whose other members (a
/// checkpoint marker's ts_ms) are ignored.
std::optional<CellAggregate> cell_aggregate_from_members(
    const SweepGrid& grid, const jsonu::FlatJson& flat, std::string* error);

struct MergeResult {
  SweepGrid grid;
  std::vector<CellAggregate> cells;  ///< all cells, ascending, exact
};

/// Validate and merge shard reports into full-grid aggregates.  Every
/// failure is a keyed, human-debuggable error: fingerprint mismatches name
/// both prints and the offending shard, coverage failures list the missing
/// cell ranges, duplicate cells name both owners.  Reports may arrive in
/// any order; shards from DIFFERENT plans of the same grid (e.g. a 3-way
/// and a 4-way split) merge fine as long as the union covers every cell
/// exactly once.
std::optional<MergeResult> merge_shard_reports(
    const std::vector<ShardReport>& reports, std::string* error = nullptr);

}  // namespace ccd::exp
