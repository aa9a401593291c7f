// Checkpoint JSONL contract: the reader consumes '\n'-terminated lines
// only, so a torn final line (the crash artifact a SIGKILLed worker
// leaves, a lone torn header included) or a half-appended one is simply
// not read yet, while malformation in any complete line is a hard keyed
// error.  The dispatcher's adopt-and-requeue path leans on exactly this
// split: every byte-level truncation of a valid checkpoint must read as a
// clean prefix of the completed cells, never as garbage and never as a
// crash of the reader -- and reading a growing file piece by piece must
// end where one whole read does.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "util/rng.hpp"

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
  void append(const std::string& content) const {
    std::ofstream out(path, std::ios::binary | std::ios::app);
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

/// One whole read of `path` by a fresh reader for `shard`.
CheckpointReader read_once(const ShardSpec& shard, const std::string& path) {
  CheckpointReader reader(shard, path);
  reader.read();
  return reader;
}

void expect_same_cells(const CheckpointReader& reader,
                       const std::vector<CellAggregate>& cells) {
  ASSERT_EQ(reader.cells().size(), cells.size());
  for (const CellAggregate& cell : cells) {
    auto it = reader.cells().find(cell.cell_index);
    ASSERT_NE(it, reader.cells().end()) << "cell " << cell.cell_index;
    // The marker splices a heartbeat into the aggregate JSON; reading must
    // strip it back out to the worker's exact accumulator state.
    EXPECT_EQ(cell_aggregate_to_json(it->second),
              cell_aggregate_to_json(cell));
  }
}

TEST(CheckpointTest, RoundTripReadsEveryCellBitIdentically) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_roundtrip.jsonl");
  file.write(valid_checkpoint(shard, cells, cells.size()));

  const CheckpointReader reader = read_once(shard, file.path);
  EXPECT_EQ(reader.error(), "");
  EXPECT_GT(reader.last_ts_ms(), 0u);
  expect_same_cells(reader, cells);
}

TEST(CheckpointTest, RunShardStampsEveryLineAndReadsBackItsReport) {
  // The file a worker writes: every line carries the ts_ms heartbeat the
  // dispatcher's steal reads, and reading it yields the worker's report.
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

  const CheckpointReader reader = read_once(shard, file.path);
  EXPECT_EQ(reader.error(), "");
  expect_same_cells(reader, report->cells);
}

TEST(CheckpointTest, CheckpointWithoutHeartbeatsStillReads) {
  // ts_ms is optional on read: a file without it reads the same cells and
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

  const CheckpointReader reader = read_once(shard, file.path);
  EXPECT_EQ(reader.error(), "");
  EXPECT_EQ(reader.last_ts_ms(), 0u);
  expect_same_cells(reader, cells);
}

TEST(CheckpointTest, MissingFileReadsAsEmptyUntilItAppears) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_not_yet_written.jsonl");
  CheckpointReader reader(shard, file.path);
  EXPECT_TRUE(reader.read());
  EXPECT_TRUE(reader.cells().empty());
  EXPECT_EQ(reader.last_ts_ms(), 0u);

  // The worker starts writing after the reader's first look.
  file.write(valid_checkpoint(shard, cells, 2));
  EXPECT_TRUE(reader.read()) << reader.error();
  EXPECT_EQ(reader.cells().size(), 2u);
  EXPECT_GT(reader.last_ts_ms(), 0u);
}

TEST(CheckpointTest, EveryTruncationReadsAsACleanPrefix) {
  // Chop a 4-cell checkpoint at EVERY byte boundary: each prefix is a
  // state some crash could leave behind, and each must read as exactly
  // the markers whose newline was written.  One reader follows the file
  // as it grows byte by byte and must agree with a fresh reader at every
  // length.  This is the adoption path's whole safety argument.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  const std::string full = valid_checkpoint(shard, cells, 4);

  std::vector<std::size_t> line_ends;  // offset just past each '\n'
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), 5u);  // header + 4 markers

  TempFile file("ckpt_truncation.jsonl");
  TempFile grown("ckpt_grown.jsonl");
  grown.write("");
  CheckpointReader follower(shard, grown.path);
  for (std::size_t len = 0; len <= full.size(); ++len) {
    file.write(full.substr(0, len));
    if (len > 0) grown.append(full.substr(len - 1, 1));
    EXPECT_TRUE(follower.read()) << "prefix length " << len;
    std::size_t complete = 0;
    while (complete < line_ends.size() && line_ends[complete] <= len) {
      ++complete;
    }
    const std::size_t expect_cells = complete > 0 ? complete - 1 : 0;
    for (const CheckpointReader& reader :
         {read_once(shard, file.path), follower}) {
      EXPECT_EQ(reader.error(), "") << "prefix length " << len;
      ASSERT_EQ(reader.cells().size(), expect_cells)
          << "prefix length " << len;
      for (std::size_t i = 0; i < expect_cells; ++i) {
        EXPECT_EQ(reader.cells().count(cells[i].cell_index), 1u)
            << "prefix length " << len << " cell " << i;
      }
      EXPECT_EQ(reader.last_ts_ms() > 0, complete > 0)
          << "prefix length " << len;
    }
  }
}

TEST(CheckpointTest, RandomChunksReadLikeOneWholeRead) {
  // The dispatcher reads a worker's file whenever it polls, so lines
  // arrive split at arbitrary bytes.  Appending a checkpoint in random
  // chunks with a read after each must end with the same cells and
  // heartbeat as one read of the whole file.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  const std::string full = valid_checkpoint(shard, cells, cells.size());
  TempFile whole("ckpt_whole.jsonl");
  whole.write(full);
  const CheckpointReader expected = read_once(shard, whole.path);
  ASSERT_EQ(expected.error(), "");
  ASSERT_EQ(expected.cells().size(), cells.size());

  Rng rng(7);
  TempFile file("ckpt_chunks.jsonl");
  for (int trial = 0; trial < 20; ++trial) {
    file.write("");
    CheckpointReader reader(shard, file.path);
    // Chunks of up to a third of a line, so most lines split mid-way.
    for (std::size_t at = 0; at < full.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(full.size() / 40),
                                full.size() - at);
      file.append(full.substr(at, len));
      at += len;
      ASSERT_TRUE(reader.read()) << reader.error();
    }
    EXPECT_EQ(reader.last_ts_ms(), expected.last_ts_ms());
    ASSERT_EQ(reader.cells().size(), expected.cells().size());
    for (const auto& [c, cell] : expected.cells()) {
      EXPECT_EQ(cell_aggregate_to_json(reader.cells().at(c)),
                cell_aggregate_to_json(cell))
          << "trial " << trial << " cell " << c;
    }
  }
}

TEST(CheckpointTest, ATornHeaderIsUnreadButAGarbageOneIsAHardError) {
  // A header torn mid-write has no newline and is never read; a complete
  // garbage first line was never a checkpoint.
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  TempFile file("ckpt_badheader.jsonl");
  file.write("{\"format\":\"ccd-shard-chec");
  CheckpointReader reader(shard, file.path);
  EXPECT_TRUE(reader.read());
  EXPECT_TRUE(reader.cells().empty());

  file.write("{\"format\":\"ccd-shard-chec\n{\"cell\":0}\n");
  const CheckpointReader garbage = read_once(shard, file.path);
  EXPECT_NE(garbage.error().find("unparseable header"), std::string::npos)
      << garbage.error();
}

TEST(CheckpointTest, MalformedCompleteLineIsAHardErrorThatDropsTheStream) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  const auto cells = grid_cells(grid);
  TempFile file("ckpt_midgarbage.jsonl");
  file.write(checkpoint_header(shard) + "\n" + "not json\n" +
             checkpoint_cell_marker(cells[0]) + "\n");
  const CheckpointReader middle = read_once(shard, file.path);
  EXPECT_NE(middle.error().find("line 2"), std::string::npos)
      << middle.error();

  // A bad line after good ones drops the cells read before it, and the
  // reader stays spent: nothing later is read.
  file.write(valid_checkpoint(shard, cells, 1));
  CheckpointReader reader(shard, file.path);
  ASSERT_TRUE(reader.read()) << reader.error();
  EXPECT_EQ(reader.cells().size(), 1u);
  file.append("{\"cell\":1}\n");
  EXPECT_FALSE(reader.read());
  EXPECT_NE(reader.error().find("line 3"), std::string::npos)
      << reader.error();
  EXPECT_TRUE(reader.cells().empty());
  file.append(checkpoint_cell_marker(cells[2]) + "\n");
  EXPECT_FALSE(reader.read());
  EXPECT_TRUE(reader.cells().empty());
}

TEST(CheckpointTest, WrongFormatAndFingerprintAreKeyedErrors) {
  const SweepGrid grid = small_grid();
  const ShardSpec shard = ShardPlanner::plan(grid, 1)[0];
  TempFile file("ckpt_badmeta.jsonl");

  file.write("{\"format\":\"something-else\"}\n");
  const CheckpointReader format = read_once(shard, file.path);
  EXPECT_NE(format.error().find("ccd-shard-checkpoint-v1"), std::string::npos)
      << format.error();

  // Header written against a different grid: stale checkpoint, rejected.
  SweepGrid other = grid;
  other.grid_seed = 100;
  file.write(checkpoint_header(ShardPlanner::plan(other, 1)[0]) + "\n");
  const CheckpointReader fingerprint = read_once(shard, file.path);
  EXPECT_NE(fingerprint.error().find("fingerprint"), std::string::npos)
      << fingerprint.error();
}

TEST(CheckpointTest, MarkerForUnownedCellIsAHardError) {
  const SweepGrid grid = small_grid();
  const auto cells = grid_cells(grid);
  const ShardSpec shard = ShardPlanner::plan_cells(grid, {0, 1}, 0);
  TempFile file("ckpt_unowned.jsonl");
  file.write(checkpoint_header(shard) + "\n" +
             checkpoint_cell_marker(cells[5]) + "\n");
  const CheckpointReader reader = read_once(shard, file.path);
  EXPECT_NE(reader.error().find("not owned"), std::string::npos)
      << reader.error();
}

}  // namespace
}  // namespace ccd::exp
