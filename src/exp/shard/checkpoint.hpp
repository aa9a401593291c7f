// Shard checkpoint files: the JSONL stream a worker writes as cells
// complete, read back by the dispatcher's per-tick liveness probe (its
// steal signal) and when it harvests a dead worker's partial progress
// before re-queueing the rest of its batch.
//
// Layout: one header line ("ccd-shard-checkpoint-v1", grid fingerprint,
// shard identity, wall-clock stamp) then one cell-aggregate line per
// COMPLETED cell, each carrying a ts_ms heartbeat.  The file is rewritten
// whole at worker start and appended per cell after that, so the only
// malformed content a crash can produce is a torn FINAL line -- possibly
// the header itself when the worker died inside its very first write.
// Loading forgives exactly that: a torn tail (including a torn lone
// header) drops silently; malformed content anywhere else is a hard,
// keyed error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/shard/shard_report.hpp"

namespace ccd::exp {

/// Header line for `shard`'s checkpoint, stamped with the current wall
/// clock (the first heartbeat: a worker that never completes a cell still
/// proves liveness at start).
std::string checkpoint_header(const ShardSpec& shard);

/// One completed cell as a checkpoint line: the cell aggregate with a
/// ts_ms heartbeat spliced in before the closing brace.  The loader looks
/// up known keys only, so the stamp never changes the loaded aggregate.
std::string checkpoint_cell_marker(const CellAggregate& cell);

/// What a checkpoint file held when loaded.
struct CheckpointContents {
  /// Completed cells, keyed by cell index; bit-identical to the worker's
  /// accumulator state at write time.
  std::map<std::size_t, CellAggregate> cells;
  /// Newest ts_ms across the header and every marker (0 if none parsed).
  std::uint64_t last_ts_ms = 0;
  /// A torn final line (crash artifact) was dropped.
  bool torn_tail = false;
  /// No file existed at `path` -- nothing completed, not an error.
  bool missing = false;
};

/// Load `path`, validating the header against `shard` (format + grid
/// fingerprint) and every marker's cell against shard ownership.  Torn
/// final lines -- including a header torn mid-write -- are forgiven and
/// reported via torn_tail; every other malformation fails with a keyed
/// message in *error.  A missing file is success with missing = true.
bool load_checkpoint(const ShardSpec& shard, const std::string& path,
                     CheckpointContents* out, std::string* error);

/// Lenient progress probe for live tailing: which cells have markers, and
/// the newest heartbeat seen.  Unparseable lines are skipped (the file is
/// mid-append), no ownership or fingerprint validation happens, and the
/// aggregates are not reconstructed -- this is cheap enough to call every
/// dispatcher poll tick.  False only if the file exists but cannot be
/// opened.
bool tail_checkpoint(const std::string& path,
                     std::vector<std::size_t>* cells_done,
                     std::uint64_t* last_ts_ms);

}  // namespace ccd::exp
