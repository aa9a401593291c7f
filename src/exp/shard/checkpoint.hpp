// Shard checkpoint files: the JSONL stream a worker writes as cells
// complete, and the one reader the dispatcher keeps per assignment.  It
// reads the stream as it grows, for the batch's heartbeat and the steal's
// finished set, and once the worker has exited, for the cells to adopt.
//
// Layout: one header line ("ccd-shard-checkpoint-v1", grid fingerprint,
// shard identity, wall-clock stamp) then one cell-aggregate line per
// COMPLETED cell, each carrying a ts_ms heartbeat.  The file is rewritten
// whole at worker start and appended per cell after that, each line
// ending in '\n', so the only malformed content a crash can produce is a
// torn FINAL line -- possibly the header itself when the worker died
// inside its very first write.  The reader consumes '\n'-terminated lines
// only: a torn or half-appended tail is never read, so it needs no
// amnesty.  Malformed content in any complete line is a hard, keyed error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "exp/shard/shard_report.hpp"

namespace ccd::exp {

/// Header line for `shard`'s checkpoint, stamped with the current wall
/// clock (the first heartbeat: a worker that never completes a cell still
/// proves liveness at start).
std::string checkpoint_header(const ShardSpec& shard);

/// One completed cell as a checkpoint line: the cell aggregate with a
/// ts_ms heartbeat spliced in before the closing brace.  The reader looks
/// up known keys only, so the stamp never changes the read aggregate.
std::string checkpoint_cell_marker(const CellAggregate& cell);

/// Incremental reader of one shard's checkpoint file.  Each read() parses
/// only the complete lines appended since the previous one, checking the
/// header against the shard (format + grid fingerprint) and every marker's
/// aggregate and cell ownership.
class CheckpointReader {
 public:
  CheckpointReader(ShardSpec shard, std::string path);

  /// Read the complete lines appended since the last call; a missing file
  /// reads as empty.  False once the stream is unusable: error() then
  /// names the file and line, the cells read are dropped, and later calls
  /// read nothing.
  bool read();

  const ShardSpec& shard() const { return shard_; }
  /// Completed cells read so far, keyed by cell index; bit-identical to
  /// the worker's accumulator state at write time.
  const std::map<std::size_t, CellAggregate>& cells() const { return cells_; }
  /// Moves the cells out (the reader is spent afterwards).
  std::map<std::size_t, CellAggregate> take_cells() {
    return std::move(cells_);
  }
  /// Newest ts_ms across the lines read (0 if none carried one).
  std::uint64_t last_ts_ms() const { return last_ts_ms_; }
  /// Empty while the stream is usable.
  const std::string& error() const { return error_; }

 private:
  bool read_line(std::string_view line);

  ShardSpec shard_;
  std::string path_;
  std::uint64_t offset_ = 0;  ///< bytes of the complete lines read
  std::size_t lines_ = 0;     ///< complete lines read, header included
  std::map<std::size_t, CellAggregate> cells_;
  std::uint64_t last_ts_ms_ = 0;
  std::string error_;
};

}  // namespace ccd::exp
