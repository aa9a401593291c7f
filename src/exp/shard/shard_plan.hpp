// ShardPlanner: deterministically partition a SweepGrid's cells into K
// self-contained shard specs for multi-process / multi-host execution.
//
// A shard spec carries everything a worker needs -- the full grid (so the
// hash(grid_seed, run_index) seed stream is reproduced exactly), the cells
// it owns as an explicit ascending list, and the grid fingerprint that
// makes stale shard files unmergeable by construction.  The planner's
// K-way splits and the dispatcher's dynamic batches are the same shape, so
// workers, checkpoints and the merge validation have one code path.
//
// Cells, not runs, are the partition unit: every cell's seeds stay
// together, so per-cell aggregates computed by a shard are bit-identical
// to the same cells inside a full-grid run and the merged report needs no
// cross-shard statistics arithmetic beyond the exact Stats/Aggregate
// merge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "util/flat_json.hpp"

namespace ccd::exp {

struct ShardSpec {
  /// Which spec of its plan this is: shard i of plan(grid, K) has index i
  /// and count K; a dispatcher batch carries its batch id and count 1.
  /// Neither decides ownership -- `cells` does.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Fingerprint of `grid` at planning time; from_json re-derives the
  /// grid's fingerprint and rejects the file on mismatch (a hand-edited or
  /// stale shard must not run, let alone merge).
  std::uint64_t grid_fingerprint = 0;
  SweepGrid grid;
  /// The owned cells, strictly ascending and in range.  May be empty
  /// (K > num_cells): an empty shard runs nothing and contributes nothing
  /// at merge time, which is still an exact merge.
  std::vector<std::size_t> cells;

  bool owns_cell(std::size_t cell) const;

  /// Self-contained shard JSON ("ccd-shard-spec-v1").
  std::string to_json() const;
  static std::optional<ShardSpec> from_json(const std::string& json,
                                            std::string* error = nullptr);
  /// The spec members of an already-parsed object, owned cells read from
  /// `cells_key` (a shard report keeps them under "cell_list", because its
  /// "cells" holds the aggregates).  No format check.
  static std::optional<ShardSpec> from_members(const jsonu::FlatJson& flat,
                                               const char* cells_key,
                                               std::string* error);
  /// Its inverse: append the spec members as `,"key":value` pairs, owned
  /// cells under `cells_key`.
  void append_members(std::string& out, const char* cells_key) const;
};

/// A spec's identity members, in serialization order; a shard report's
/// header carries them too.
inline constexpr jsonu::UintMember<ShardSpec, std::size_t>
    kShardIdentityFields[] = {{"shard_index", &ShardSpec::shard_index},
                              {"shard_count", &ShardSpec::shard_count}};

class ShardPlanner {
 public:
  /// Partition `grid` into `count` shards (count >= 1) covering every cell
  /// exactly once: shard i owns the balanced range
  /// [i*N/count, (i+1)*N/count).  Deterministic: same (grid, count) ->
  /// same specs.
  static std::vector<ShardSpec> plan(const SweepGrid& grid,
                                     std::size_t count);

  /// One spec owning exactly `cells` (must be strictly ascending and in
  /// range).  `batch_id` lands in shard_index so every assignment the
  /// dispatcher writes is distinguishable in checkpoints and error
  /// messages.
  static ShardSpec plan_cells(const SweepGrid& grid,
                              std::vector<std::size_t> cells,
                              std::size_t batch_id);
};

using jsonu::fingerprint_from_hex;
using jsonu::fingerprint_to_hex;

}  // namespace ccd::exp
