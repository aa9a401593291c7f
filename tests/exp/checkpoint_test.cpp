// Checkpoint JSONL contract: torn-final-line amnesty (the crash artifact a
// SIGKILLed worker leaves) covers the tail AND a lone torn header, while
// malformation anywhere else stays a hard keyed error.  The dispatcher's
// harvest-and-requeue path leans on exactly this split: every byte-level
// truncation of a valid checkpoint must load as a clean prefix of the
// completed cells, never as garbage and never as a crash of the loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/checkpoint.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2};
  grid.ns = {2, 4, 5};
  grid.value_spaces = {4, 16};  // 12 cells
  grid.base.cst_target = 3;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 99;
  return grid;
}

struct TempFile {
  explicit TempFile(const char* name) : path(name) {}
  ~TempFile() { std::remove(path.c_str()); }
  void write(const std::string& content) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::string path;
};

/// A checkpoint exactly as a worker writes it: header, then one marker per
/// completed cell in completion order.
std::string valid_checkpoint(const ShardSpec& shard,
                             const std::vector<CellAggregate>& cells,
                             std::size_t completed) {
  std::string out = checkpoint_header(shard) + "\n";
  for (std::size_t i = 0; i < completed; ++i) {
    out += checkpoint_cell_marker(cells[i]) + "\n";
  }
  return out;
}

std::vector<CellAggregate> grid_cells(const SweepGrid& grid) {
  SweepOptions options;
  options.threads = 1;
  return aggregate(grid, run_sweep(grid, options));
}

TEST(CheckpointTest, RoundTripLoadsEveryCellBitIdentically) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_roundtrip.jsonl");
  file.write(valid_checkpoint(shard, cells, cells.size()));

  CheckpointContents contents;
  std::string error;
  ASSERT_TRUE(load_checkpoint(shard, file.path, &contents, &error)) << error;
  EXPECT_FALSE(contents.missing);
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_GT(contents.last_ts_ms, 0u);
  ASSERT_EQ(contents.cells.size(), cells.size());
  for (const CellAggregate& cell : cells) {
    auto it = contents.cells.find(cell.cell_index);
    ASSERT_NE(it, contents.cells.end()) << "cell " << cell.cell_index;
    // The marker splices heartbeat fields into the aggregate JSON; loading
    // must strip them back out to the worker's exact accumulator state.
    EXPECT_EQ(cell_aggregate_to_json(it->second),
              cell_aggregate_to_json(cell));
  }
}

TEST(CheckpointTest, RunShardStampsEveryLineAndLoadsBackItsReport) {
  // The file a worker writes: every line carries the ts_ms heartbeat the
  // dispatcher's steal reads, and loading it yields the worker's report.
  // A stale file on the path is truncated, not appended to.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 2)[0];
  TempFile file("ckpt_run_shard.jsonl");
  file.write("stale line from an earlier worker\n");
  ShardRunOptions options;
  options.checkpoint_path = file.path;
  std::string error;
  auto report = run_shard(shard, options, &error);
  ASSERT_TRUE(report.has_value()) << error;

  std::ifstream in(file.path, std::ios::binary);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 1 + shard.cells.size());  // header + one per cell

  CheckpointContents contents;
  ASSERT_TRUE(load_checkpoint(shard, file.path, &contents, &error)) << error;
  ASSERT_EQ(contents.cells.size(), report->cells.size());
  for (const CellAggregate& cell : report->cells) {
    EXPECT_EQ(cell_aggregate_to_json(contents.cells.at(cell.cell_index)),
              cell_aggregate_to_json(cell));
  }
}

TEST(CheckpointTest, CheckpointWithoutHeartbeatsStillLoads) {
  // ts_ms is optional on read: a file without it loads the same cells and
  // reports no heartbeat.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  std::string text = valid_checkpoint(shard, cells, cells.size());
  const std::string needle = ",\"ts_ms\":";
  for (std::size_t at; (at = text.find(needle)) != std::string::npos;) {
    std::size_t end = at + needle.size();
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
    text.erase(at, end - at);
  }
  ASSERT_EQ(text.find("ts_ms"), std::string::npos);
  TempFile file("ckpt_no_heartbeat.jsonl");
  file.write(text);

  CheckpointContents contents;
  std::string error;
  ASSERT_TRUE(load_checkpoint(shard, file.path, &contents, &error)) << error;
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.last_ts_ms, 0u);
  ASSERT_EQ(contents.cells.size(), cells.size());
  for (const CellAggregate& cell : cells) {
    EXPECT_EQ(cell_aggregate_to_json(contents.cells.at(cell.cell_index)),
              cell_aggregate_to_json(cell));
  }
}

TEST(CheckpointTest, MissingFileIsEmptySuccess) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  CheckpointContents contents;
  std::string error;
  ASSERT_TRUE(load_checkpoint(shard, "ckpt_never_written.jsonl", &contents,
                              &error))
      << error;
  EXPECT_TRUE(contents.missing);
  EXPECT_TRUE(contents.cells.empty());
}

TEST(CheckpointTest, EveryTruncationLoadsAsACleanPrefix) {
  // Chop a 4-cell checkpoint at EVERY byte boundary: each prefix is a
  // state some crash could leave behind, and each must load as exactly
  // the fully-written markers -- with torn_tail flagged iff the final
  // line was cut.  This is the harvest path's whole safety argument.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  const std::string full = valid_checkpoint(shard, cells, 4);

  // Map each byte offset to how many markers are complete at that point.
  std::vector<std::size_t> line_ends;  // offset just past each '\n'
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), 5u);  // header + 4 markers

  TempFile file("ckpt_truncation.jsonl");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    file.write(full.substr(0, len));
    CheckpointContents contents;
    std::string error;
    ASSERT_TRUE(load_checkpoint(shard, file.path, &contents, &error))
        << "prefix length " << len << ": " << error;
    // A line is parseable once its CONTENT is fully present -- the final
    // newline is not needed (getline yields the unterminated line whole).
    std::size_t parseable = 0;
    while (parseable < line_ends.size() &&
           line_ends[parseable] - 1 <= len) {
      ++parseable;
    }
    const std::size_t expect_cells =
        parseable > 0 ? parseable - 1 : 0;  // header is not a cell
    EXPECT_EQ(contents.cells.size(), expect_cells) << "prefix length " << len;
    for (std::size_t i = 0; i < expect_cells; ++i) {
      EXPECT_EQ(contents.cells.count(cells[i].cell_index), 1u)
          << "prefix length " << len << " cell " << i;
    }
    // torn_tail iff bytes remain past the last parseable line that do not
    // themselves form one -- a genuine mid-line cut.
    const std::size_t consumed = parseable > 0 ? line_ends[parseable - 1] : 0;
    EXPECT_EQ(contents.torn_tail, len > consumed) << "prefix length " << len;
  }
}

TEST(CheckpointTest, ContentAfterATornHeaderIsAHardError) {
  // The lone-header amnesty is only for a file that IS a torn header; a
  // garbage first line followed by more content was never a checkpoint.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  TempFile file("ckpt_badheader.jsonl");
  file.write("{\"format\":\"ccd-shard-chec\n{\"cell\":0}\n");
  CheckpointContents contents;
  std::string error;
  EXPECT_FALSE(load_checkpoint(shard, file.path, &contents, &error));
  EXPECT_NE(error.find("unparseable header"), std::string::npos) << error;
}

TEST(CheckpointTest, MalformedMiddleLineIsAHardError) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_midgarbage.jsonl");
  file.write(checkpoint_header(shard) + "\n" + "not json\n" +
             checkpoint_cell_marker(cells[0]) + "\n");
  CheckpointContents contents;
  std::string error;
  EXPECT_FALSE(load_checkpoint(shard, file.path, &contents, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(CheckpointTest, WrongFormatAndFingerprintAreKeyedErrors) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  TempFile file("ckpt_badmeta.jsonl");

  file.write("{\"format\":\"something-else\"}\n");
  CheckpointContents contents;
  std::string error;
  EXPECT_FALSE(load_checkpoint(shard, file.path, &contents, &error));
  EXPECT_NE(error.find("ccd-shard-checkpoint-v1"), std::string::npos)
      << error;

  // Header written against a different grid: stale checkpoint, rejected.
  SweepGrid other = grid;
  other.grid_seed = 100;
  file.write(checkpoint_header(ShardPlanner::plan(other, 1)[0]) + "\n");
  EXPECT_FALSE(load_checkpoint(shard, file.path, &contents, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CheckpointTest, MarkerForUnownedCellIsAHardError) {
  const SweepGrid grid = small_grid();
  const auto cells = grid_cells(grid);
  const ShardSpec shard = ShardPlanner::plan_cells(grid, {0, 1}, 0);
  TempFile file("ckpt_unowned.jsonl");
  file.write(checkpoint_header(shard) + "\n" +
             checkpoint_cell_marker(cells[5]) + "\n");
  CheckpointContents contents;
  std::string error;
  EXPECT_FALSE(load_checkpoint(shard, file.path, &contents, &error));
  EXPECT_NE(error.find("not owned"), std::string::npos) << error;
}

TEST(CheckpointTest, TailCheckpointIsLenientAndCheap) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_tail.jsonl");

  // Mid-append torn tail: the tailer skips it and reports what's whole.
  std::string content = valid_checkpoint(shard, cells, 3);
  content += checkpoint_cell_marker(cells[3]).substr(0, 20);
  file.write(content);
  std::vector<std::size_t> done;
  std::uint64_t last_ts = 0;
  ASSERT_TRUE(tail_checkpoint(file.path, &done, &last_ts));
  EXPECT_EQ(done, (std::vector<std::size_t>{cells[0].cell_index,
                                            cells[1].cell_index,
                                            cells[2].cell_index}));
  EXPECT_GT(last_ts, 0u);

  // No validation at all: a foreign-grid checkpoint still tails fine
  // (the dispatcher only wants liveness, load_checkpoint does the vetting).
  EXPECT_FALSE(tail_checkpoint("ckpt_never_written.jsonl", &done, &last_ts));
}

}  // namespace
}  // namespace ccd::exp
