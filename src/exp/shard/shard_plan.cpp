#include "exp/shard/shard_plan.hpp"

#include <algorithm>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"

namespace ccd::exp {

bool ShardSpec::owns_cell(std::size_t cell) const {
  return std::binary_search(cells.begin(), cells.end(), cell);
}

std::string ShardSpec::to_json() const {
  std::string out = "{\"format\":\"ccd-shard-spec-v1\"";
  append_members(out, "cells");
  out += '}';
  return out;
}

void ShardSpec::append_members(std::string& out, const char* cells_key) const {
  jsonu::append_members(out, *this, kShardIdentityFields);
  out += ",\"grid_fingerprint\":\"";
  out += fingerprint_to_hex(grid_fingerprint);
  out += "\",\"grid\":";
  out += grid.to_json();
  out += ",\"";
  out += cells_key;
  out += "\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    numfmt::append_int(out, cells[i]);
  }
  out += ']';
}

std::optional<ShardSpec> ShardSpec::from_json(const std::string& json,
                                              std::string* error) {
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) {
    if (error) *error = "shard spec is not a flat JSON object";
    return std::nullopt;
  }
  const auto format = flat->find("format");
  if (!format || *format != "ccd-shard-spec-v1") {
    if (error) {
      *error = "missing or unknown \"format\" (expected ccd-shard-spec-v1)";
    }
    return std::nullopt;
  }
  return from_members(*flat, "cells", error);
}

std::optional<ShardSpec> ShardSpec::from_members(const jsonu::FlatJson& flat,
                                                 const char* cells_key,
                                                 std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<ShardSpec> {
    if (error) *error = message;
    return std::nullopt;
  };

  ShardSpec spec;
  if (!jsonu::read_members(flat, kShardIdentityFields, spec, error)) {
    return std::nullopt;
  }
  if (spec.shard_count == 0) return fail("shard_count must be >= 1");

  const auto fp_raw = flat.find("grid_fingerprint");
  if (!fp_raw) return fail("missing key 'grid_fingerprint'");
  auto fp = fingerprint_from_hex(*fp_raw);
  if (!fp) {
    return fail("bad value '" + std::string(*fp_raw) +
                "' for key 'grid_fingerprint' (expected 16 hex digits)");
  }
  spec.grid_fingerprint = *fp;

  const auto grid_raw = flat.find("grid");
  if (!grid_raw) return fail("missing key 'grid'");
  std::string grid_error;
  auto grid = SweepGrid::from_json(*grid_raw, &grid_error);
  if (!grid) return fail("grid: " + grid_error);
  spec.grid = *grid;

  // Stale-shard rejection: the embedded fingerprint must match the grid it
  // travels with.  A spec whose grid was edited after planning (or planned
  // by an incompatible build) is refused here, before any cell runs.
  if (spec.grid.fingerprint() != spec.grid_fingerprint) {
    return fail("grid fingerprint mismatch: file says " + std::string(*fp_raw) +
                " but the embedded grid hashes to " +
                fingerprint_to_hex(spec.grid.fingerprint()) +
                " (stale or hand-edited shard spec?)");
  }

  // Ownership is the list alone, so a spec without one is refused rather
  // than guessed at.
  const auto cells_raw = flat.find(cells_key);
  if (!cells_raw) {
    return fail(std::string("missing key '") + cells_key +
                "' (the owned cell list)");
  }
  std::string cell_error;
  if (!jsonu::for_each_item(*cells_raw, [&](std::string_view item) {
        auto c = jsonu::parse_u64(item);
        if (!c) {
          cell_error = "bad cell '" + std::string(item) + "' in '" +
                       cells_key + "'";
        } else if (*c >= spec.grid.num_cells()) {
          cell_error = "cell " + std::string(item) +
                       " out of range (grid has " +
                       std::to_string(spec.grid.num_cells()) + " cells)";
        } else if (!spec.cells.empty() && spec.cells.back() >= *c) {
          cell_error = std::string("'") + cells_key +
                       "' must be strictly ascending (saw " +
                       std::to_string(spec.cells.back()) + " then " +
                       std::string(item) + ")";
        } else {
          spec.cells.push_back(static_cast<std::size_t>(*c));
          return true;
        }
        return false;
      })) {
    return fail(cell_error.empty()
                    ? std::string("'") + cells_key + "' is not a JSON array"
                    : cell_error);
  }
  return spec;
}

std::vector<ShardSpec> ShardPlanner::plan(const SweepGrid& grid,
                                          std::size_t count) {
  if (count == 0) count = 1;
  const std::size_t n = grid.num_cells();
  const std::uint64_t fp = grid.fingerprint();
  std::vector<ShardSpec> shards;
  shards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ShardSpec spec;
    spec.shard_index = i;
    spec.shard_count = count;
    spec.grid_fingerprint = fp;
    spec.grid = grid;
    for (std::size_t c = i * n / count; c < (i + 1) * n / count; ++c) {
      spec.cells.push_back(c);
    }
    shards.push_back(std::move(spec));
  }
  return shards;
}

ShardSpec ShardPlanner::plan_cells(const SweepGrid& grid,
                                   std::vector<std::size_t> cells,
                                   std::size_t batch_id) {
  ShardSpec spec;
  spec.shard_index = batch_id;
  spec.grid_fingerprint = grid.fingerprint();
  spec.grid = grid;
  spec.cells = std::move(cells);
  return spec;
}

}  // namespace ccd::exp
