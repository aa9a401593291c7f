#include "exp/shard/shard_runner.hpp"

#include <fstream>
#include <map>
#include <mutex>

#include "exp/shard/checkpoint.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp {

std::optional<ShardReport> run_shard(const ShardSpec& shard,
                                     const ShardRunOptions& options,
                                     std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<ShardReport> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (shard.grid.seeds_per_cell == 0) {
    return fail("shard grid has seeds_per_cell 0: no runs to execute");
  }

  // Run indices in global run-index order, so the per-cell fold order
  // matches a full-grid run.
  const std::uint32_t spc = shard.grid.seeds_per_cell;
  std::vector<std::size_t> run_indices;
  for (std::size_t c : shard.cells) {
    for (std::uint32_t s = 0; s < spc; ++s) {
      run_indices.push_back(c * spc + s);
    }
  }

  // The checkpoint is truncated on open, not appended to: a file left by
  // an earlier worker on the same path must not leak its markers into
  // this run's.
  std::ofstream checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint.open(options.checkpoint_path,
                    std::ios::binary | std::ios::trunc);
    if (!checkpoint) {
      return fail("cannot write checkpoint " + options.checkpoint_path);
    }
    checkpoint << checkpoint_header(shard) << "\n" << std::flush;
  }

  // Per-cell completion tracking: when a cell's last seed lands, fold its
  // records (slot order = run order, so the fold is deterministic) and
  // emit the checkpoint marker.  The mutex serializes marker writes; cell
  // ORDER in the file is completion order, which is fine -- readers key by
  // cell index, and the report sorts below.
  std::map<std::size_t, std::vector<const RunRecord*>> slots;
  std::map<std::size_t, std::uint32_t> pending;
  for (std::size_t c : shard.cells) {
    slots[c].assign(spc, nullptr);
    pending[c] = spc;
  }
  std::mutex mu;
  std::map<std::size_t, CellAggregate> finished;
  SweepOptions sweep = options.sweep;
  sweep.on_record = [&](const RunRecord& record) {
    if (options.sweep.on_record) options.sweep.on_record(record);
    std::lock_guard<std::mutex> lock(mu);
    const std::size_t c = record.cell_index;
    slots[c][record.run_index - c * spc] = &record;
    if (--pending[c] > 0) return;
    CellAggregate cell = empty_cell_aggregate(shard.grid, c);
    for (const RunRecord* r : slots[c]) accumulate_run(cell, *r);
    obs::Telemetry::thread_sink().add(obs::Counter::kCellsCompleted, 1);
    if (checkpoint.is_open()) {
      checkpoint << checkpoint_cell_marker(cell) << "\n"
                 << std::flush;
    }
    finished[c] = std::move(cell);
  };

  // The records vector outlives the pool (slots hold pointers into it).
  run_subset(shard.grid, run_indices, sweep);

  ShardReport report;
  report.shard = shard;
  report.cells.reserve(shard.cells.size());
  for (std::size_t c : shard.cells) {
    report.cells.push_back(std::move(finished.at(c)));
  }
  // Stamp the memory-wall metric into the sidecar-to-be: how many bytes
  // the aggregator actually retained for this shard's cells.
  if (sweep.perf) {
    sweep.perf->stats_bytes_retained = stats_bytes_retained(report.cells);
  }
  return report;
}

}  // namespace ccd::exp
