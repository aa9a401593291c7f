// Shard worker execution: run exactly one shard's cells under the global
// hash(grid_seed, run_index) seed stream and produce its ShardReport, with
// optional per-cell checkpoint markers.
//
// The checkpoint file is append-only JSONL: a header line naming the grid
// fingerprint and shard identity, then one cell-aggregate line per
// COMPLETED cell, written the moment the cell's last seed finishes.  It is
// a dispatched worker's only output: the dispatcher reads it as it grows
// for the heartbeat and, when the worker exits, adopts the cells it holds
// (bit-identical -- samples are serialized losslessly in fold order) and
// re-queues only the rest.
#pragma once

#include <optional>
#include <string>

#include "exp/shard/shard_report.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {

struct ShardRunOptions {
  SweepOptions sweep;           ///< threads / record_views / progress
  std::string checkpoint_path;  ///< empty = no checkpointing
};

/// Execute the shard and return its report (cells ascending).  nullopt
/// when the grid has no runs or the checkpoint cannot be written, with a
/// keyed message in *error; execution itself cannot fail.
std::optional<ShardReport> run_shard(const ShardSpec& shard,
                                     const ShardRunOptions& options = {},
                                     std::string* error = nullptr);

}  // namespace ccd::exp
