#include "exp/shard/shard_report.hpp"

#include <algorithm>
#include <limits>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"

namespace ccd::exp {

namespace {

// Field tables keep the serializer and parser in lockstep: a counter or
// statistic added to CellAggregate only needs one entry here to flow
// through shard reports, checkpoints and the merge.
struct CounterField {
  const char* key;
  std::size_t CellAggregate::* member;
};
constexpr CounterField kCounters[] = {
    {"runs", &CellAggregate::runs},
    {"solved", &CellAggregate::solved},
    {"agreement_failures", &CellAggregate::agreement_failures},
    {"validity_failures", &CellAggregate::validity_failures},
    {"termination_failures", &CellAggregate::termination_failures},
    {"crashed_processes", &CellAggregate::crashed_processes},
    {"mh_runs", &CellAggregate::mh_runs},
    {"disconnected", &CellAggregate::disconnected},
    {"full_coverage", &CellAggregate::full_coverage},
    {"mis_violations", &CellAggregate::mis_violations},
    {"mh_crashes_applied", &CellAggregate::mh_crashes_applied},
    {"phase2_skipped", &CellAggregate::phase2_skipped},
    {"sync_runs", &CellAggregate::sync_runs},
    {"sync_bound_violations", &CellAggregate::sync_bound_violations},
};

// (The Stats members use the shared cell_stats_fields() table from
// aggregator.hpp, so the dist export and this codec can never drift.)

/// "12" or "3..17" (inclusive) range rendering for coverage errors.
std::string render_ranges(const std::vector<std::size_t>& cells) {
  std::string out;
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i;
    while (j + 1 < cells.size() && cells[j + 1] == cells[j] + 1) ++j;
    if (!out.empty()) out += ", ";
    out += std::to_string(cells[i]);
    if (j > i) out += ".." + std::to_string(cells[j]);
    i = j + 1;
  }
  return out;
}

void append_cell_aggregate_json(std::string& out, const CellAggregate& cell) {
  out += "{\"cell\":";
  numfmt::append_int(out, cell.cell_index);
  for (const CounterField& f : kCounters) {
    out += ",\"";
    out += f.key;
    out += "\":";
    numfmt::append_int(out, cell.*(f.member));
  }
  for (const CellStatsField& f : cell_stats_fields()) {
    out += ",\"";
    out += f.name;
    out += "\":";
    // v2 encoding: {"h":[key,count,...]} for histogram-mode statistics
    // (the common case -- every count-like metric), {"raw":[...]} for the
    // real-valued opt-ins.  Both are exact.
    append_stats_json(out, cell.*(f.member));
  }
  out += '}';
}

}  // namespace

std::string cell_aggregate_to_json(const CellAggregate& cell) {
  std::string out;
  append_cell_aggregate_json(out, cell);
  return out;
}

std::optional<CellAggregate> cell_aggregate_from_json(const SweepGrid& grid,
                                                      std::string_view json,
                                                      std::string* error) {
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) {
    if (error) *error = "cell aggregate is not a flat JSON object";
    return std::nullopt;
  }
  return cell_aggregate_from_members(grid, *flat, error);
}

std::optional<CellAggregate> cell_aggregate_from_members(
    const SweepGrid& grid, const jsonu::FlatJson& flat, std::string* error) {
  auto fail = [&](const std::string& message)
      -> std::optional<CellAggregate> {
    if (error) *error = message;
    return std::nullopt;
  };
  const auto cell_raw = flat.find("cell");
  if (!cell_raw) return fail("cell aggregate missing key 'cell'");
  const auto c = jsonu::parse_u64(*cell_raw);
  if (!c) {
    return fail("bad value '" + std::string(*cell_raw) + "' for key 'cell'");
  }
  if (*c >= grid.num_cells()) {
    return fail("cell " + std::to_string(*c) + " out of range (grid has " +
                std::to_string(grid.num_cells()) + " cells)");
  }

  CellAggregate cell =
      empty_cell_aggregate(grid, static_cast<std::size_t>(*c));
  for (const CounterField& f : kCounters) {
    const auto raw = flat.find(f.key);
    if (!raw) return fail(std::string("cell aggregate missing key '") +
                          f.key + "'");
    const auto v =
        jsonu::parse_u64(*raw, std::numeric_limits<std::size_t>::max());
    if (!v) {
      return fail("bad value '" + std::string(*raw) + "' for key '" + f.key +
                  "'");
    }
    cell.*(f.member) = static_cast<std::size_t>(*v);
  }
  for (const CellStatsField& f : cell_stats_fields()) {
    const auto raw = flat.find(f.name);
    if (!raw) return fail(std::string("cell aggregate missing key '") +
                          f.name + "'");
    // Histogram bins install by count addition; raw buffers replay via
    // add() in insertion order.  Either way the worker's accumulator state
    // is reproduced exactly.
    std::string stats_error;
    if (!stats_from_json(*raw, &(cell.*(f.member)), &stats_error)) {
      return fail(std::string("key '") + f.name + "': " + stats_error);
    }
  }
  return cell;
}

std::string ShardReport::to_json() const {
  std::string out = "{\"format\":\"ccd-shard-report-v2\",\"shard_index\":";
  numfmt::append_int(out, shard.shard_index);
  out += ",\"shard_count\":";
  numfmt::append_int(out, shard.shard_count);
  out += ",\"grid_fingerprint\":\"";
  out += fingerprint_to_hex(shard.grid_fingerprint);
  out += "\",\"grid\":";
  out += shard.grid.to_json();
  // "cell_list" because "cells" already carries the aggregates below.
  out += ",\"cell_list\":[";
  for (std::size_t i = 0; i < shard.cells.size(); ++i) {
    if (i > 0) out += ',';
    numfmt::append_int(out, shard.cells[i]);
  }
  out += "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    append_cell_aggregate_json(out, cells[i]);
  }
  out += "]}";
  return out;
}

std::optional<ShardReport> ShardReport::from_json(const std::string& json,
                                                  std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<ShardReport> {
    if (error) *error = message;
    return std::nullopt;
  };
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) return fail("shard report is not a flat JSON object");
  const auto format = flat->find("format");
  if (!format || *format != "ccd-shard-report-v2") {
    return fail(
        "missing or unknown \"format\" (expected ccd-shard-report-v2)");
  }

  // The report header doubles as a shard spec, owned cells in
  // "cell_list".
  ShardReport report;
  auto spec = ShardSpec::from_members(*flat, "cell_list", error);
  if (!spec) return std::nullopt;
  report.shard = std::move(*spec);

  const auto cells_raw = flat->find("cells");
  if (!cells_raw) return fail("missing key 'cells'");
  report.cells.reserve(report.shard.cells.size());
  std::string cell_error;
  if (!jsonu::for_each_item(*cells_raw, [&](std::string_view item) {
        auto cell =
            cell_aggregate_from_json(report.shard.grid, item, &cell_error);
        if (!cell) {
          cell_error = "cells[" + std::to_string(report.cells.size()) +
                       "]: " + cell_error;
          return false;
        }
        report.cells.push_back(std::move(*cell));
        return true;
      })) {
    return fail(cell_error.empty() ? "'cells' is not a JSON array"
                                   : cell_error);
  }
  return report;
}

std::optional<MergeResult> merge_shard_reports(
    const std::vector<ShardReport>& reports, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<MergeResult> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (reports.empty()) return fail("no shard reports to merge");

  const std::uint64_t fp = reports.front().shard.grid_fingerprint;
  for (const ShardReport& r : reports) {
    if (r.shard.grid_fingerprint != fp) {
      return fail("grid fingerprint mismatch: shard " +
                  std::to_string(reports.front().shard.shard_index) +
                  " was planned over grid " + fingerprint_to_hex(fp) +
                  " but shard " + std::to_string(r.shard.shard_index) +
                  " over grid " + fingerprint_to_hex(r.shard.grid_fingerprint) +
                  " (shards from different grids cannot merge)");
    }
  }

  MergeResult result;
  result.grid = reports.front().shard.grid;
  const std::size_t n = result.grid.num_cells();
  result.cells.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    result.cells.push_back(empty_cell_aggregate(result.grid, c));
  }

  // Exactly-once coverage: every cell merged from precisely one report.
  // (Duplicate detection is per CELL, not per shard range, so overlapping
  // splits -- say a 3-way and a 4-way plan mixed together -- are caught.)
  std::vector<std::size_t> owner(n, ~std::size_t{0});
  for (std::size_t r = 0; r < reports.size(); ++r) {
    for (const CellAggregate& cell : reports[r].cells) {
      if (owner[cell.cell_index] != ~std::size_t{0}) {
        return fail(
            "duplicate cell " + std::to_string(cell.cell_index) +
            ": reported by both shard " +
            std::to_string(reports[owner[cell.cell_index]].shard.shard_index) +
            " and shard " + std::to_string(reports[r].shard.shard_index));
      }
      owner[cell.cell_index] = r;
      merge_cell_aggregate(result.cells[cell.cell_index], cell);
    }
  }
  std::vector<std::size_t> missing;
  for (std::size_t c = 0; c < n; ++c) {
    if (owner[c] == ~std::size_t{0}) missing.push_back(c);
  }
  if (!missing.empty()) {
    return fail("missing cells: " + render_ranges(missing) + " (" +
                std::to_string(missing.size()) + " of " + std::to_string(n) +
                "; is a shard report absent or truncated?)");
  }
  return result;
}

}  // namespace ccd::exp
