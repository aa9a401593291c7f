#include "obs/perf_sidecar.hpp"

#include <algorithm>
#include <map>

#include "util/flat_json.hpp"
#include "util/histogram.hpp"

namespace ccd::obs {

namespace {

namespace jsonu = ccd::jsonu;
using jsonu::fingerprint_from_hex;
using jsonu::fingerprint_to_hex;

/// Nearest-rank percentile over a duration histogram; p in [0, 100].
/// Identical to the classic sorted-buffer formula (k = ceil(p*n/100),
/// clamped to [1,n], k-th smallest), read out of cumulative bin counts.
std::uint64_t percentile_ns(const ExactHistogram& durations, double p) {
  if (durations.empty()) return 0;
  const std::uint64_t n = durations.total();
  const double rank = p / 100.0 * static_cast<double>(n);
  std::uint64_t k = static_cast<std::uint64_t>(rank);
  if (static_cast<double>(k) < rank) ++k;  // ceil
  if (k == 0) k = 1;
  if (k > n) k = n;
  return static_cast<std::uint64_t>(durations.value_at_rank(k - 1));
}

/// `[{...},...]`: each record an object over `table`.
template <typename Record, typename Table>
void append_records(std::string& out, const std::vector<Record>& records,
                    const Table& table) {
  out += '[';
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ',';
    jsonu::open_object(out, records[i], table);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string PerfSidecar::to_json() const {
  std::string out = "{\"format\":\"ccd-perf-sidecar-v1\"";
  out += ",\"grid_fingerprint\":\"" + fingerprint_to_hex(grid_fingerprint) +
         "\"";
  jsonu::append_member(out, "runs", runs);
  jsonu::append_member(out, "stats_bytes_retained", stats_bytes_retained);
  out += ",\"counters\":";
  jsonu::open_object(out, counters, kEngineCounterFields);
  out += "},\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ',';
    jsonu::open_object(out, shards[i], kPerfShardExecFields);
    out += ",\"workers\":";
    append_records(out, shards[i].workers, kPerfWorkerFields);
    out += '}';
  }
  out += "],\"cells\":";
  append_records(out, cells, kPerfCellFields);
  if (dispatch) {
    out += ",\"dispatch\":";
    jsonu::open_object(out, *dispatch, kPerfDispatchFields);
    out += ",\"slots\":";
    append_records(out, dispatch->slots, kPerfDispatchSlotFields);
    out += '}';
  }
  out += '}';
  return out;
}

std::optional<PerfSidecar> PerfSidecar::from_json(const std::string& json,
                                                  std::string* error) {
  const auto flat = jsonu::FlatJson::parse(json);
  if (!flat) {
    if (error) *error = "perf sidecar is not a flat JSON object";
    return std::nullopt;
  }
  return from_members(*flat, error);
}

std::optional<PerfSidecar> PerfSidecar::from_members(
    const jsonu::FlatJson& flat, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<PerfSidecar> {
    if (error) *error = message;
    return std::nullopt;
  };
  const auto format = flat.find("format");
  if (!format || *format != "ccd-perf-sidecar-v1") {
    return fail(
        "missing or unknown \"format\" (expected ccd-perf-sidecar-v1)");
  }

  PerfSidecar sidecar;
  const auto fp_raw = flat.find("grid_fingerprint");
  if (!fp_raw) return fail("missing key 'grid_fingerprint'");
  auto fp = fingerprint_from_hex(*fp_raw);
  if (!fp) {
    return fail("bad value '" + std::string(*fp_raw) +
                "' for key 'grid_fingerprint'");
  }
  sidecar.grid_fingerprint = *fp;
  if (!jsonu::read_member(flat, "runs", &sidecar.runs, error,
                          "perf sidecar") ||
      !jsonu::read_member(flat, "stats_bytes_retained",
                          &sidecar.stats_bytes_retained, error,
                          "perf sidecar")) {
    return std::nullopt;
  }
  const auto counters_raw = flat.find("counters");
  if (!counters_raw) return fail("missing key 'counters'");
  const auto counters = jsonu::FlatJson::parse(*counters_raw);
  if (!counters) return fail("'counters' is not a flat JSON object");
  if (!jsonu::read_members(*counters, kEngineCounterFields, sidecar.counters,
                           error, "'counters'")) {
    return std::nullopt;
  }

  // The flat objects of the array text `raw`, each read into a new
  // element of `records` through `table` and then `more` (its members
  // outside the table).  `name` is the array in the not-an-array error,
  // `where` the prefix of element paths; a failure has set *error.
  auto read_records = [&](std::string_view raw, const std::string& name,
                          const std::string& where, auto& records,
                          const auto& table, auto&& more) {
    std::size_t i = 0;
    if (jsonu::for_each_item(raw, [&](std::string_view item) {
          const std::string at = where + "[" + std::to_string(i++) + "]";
          auto obj = jsonu::FlatJson::parse(item);
          if (!obj) fail(at + " is not a flat JSON object");
          return obj &&
                 jsonu::read_members(*obj, table, records.emplace_back(),
                                     error, at) &&
                 more(*obj, records.back(), at);
        })) {
      return true;
    }
    if (i == 0) fail(name + " is not a JSON array");  // visited nothing
    return false;
  };
  const auto no_more = [](const auto&...) { return true; };

  const auto shards_raw = flat.find("shards");
  if (!shards_raw) return fail("missing key 'shards'");
  if (!read_records(*shards_raw, "'shards'", "shards", sidecar.shards,
                    kPerfShardExecFields,
                    [&](const jsonu::FlatJson& sf, PerfShardExec& s,
                        const std::string& at) {
    const auto workers_raw = sf.find("workers");
    if (!workers_raw) {
      fail(at + " missing key 'workers'");
      return false;
    }
    return read_records(*workers_raw, at + ".workers", at + ".workers",
                        s.workers, kPerfWorkerFields, no_more);
  })) {
    return std::nullopt;
  }

  const auto cells_raw = flat.find("cells");
  if (!cells_raw) return fail("missing key 'cells'");
  if (!read_records(*cells_raw, "'cells'", "cells", sidecar.cells,
                    kPerfCellFields, no_more)) {
    return std::nullopt;
  }

  // Optional: only dispatcher-merged sidecars carry dispatch totals.
  if (const auto dispatch_raw = flat.find("dispatch")) {
    auto df = jsonu::FlatJson::parse(*dispatch_raw);
    if (!df) return fail("'dispatch' is not a flat JSON object");
    PerfDispatch& d = sidecar.dispatch.emplace();
    if (!jsonu::read_members(*df, kPerfDispatchFields, d, error,
                             "'dispatch'")) {
      return std::nullopt;
    }
    const auto slots_raw = df->find("slots");
    if (!slots_raw) return fail("'dispatch' missing key 'slots'");
    if (!read_records(*slots_raw, "'dispatch'.slots", "dispatch.slots",
                      d.slots, kPerfDispatchSlotFields, no_more)) {
      return std::nullopt;
    }
  }
  return sidecar;
}

PerfSidecar build_perf_sidecar(std::uint64_t grid_fingerprint,
                               std::uint64_t shard_index,
                               std::uint64_t shard_count,
                               const SweepPerf& perf) {
  PerfSidecar sidecar;
  sidecar.grid_fingerprint = grid_fingerprint;
  sidecar.runs = perf.runs;
  sidecar.stats_bytes_retained = perf.stats_bytes_retained;
  sidecar.counters = perf.counters;

  std::vector<PerfWorker> workers(perf.threads);
  for (std::uint32_t w = 0; w < perf.threads; ++w) workers[w].worker = w;
  // Durations fold straight into per-cell histograms: ranked percentiles
  // come from cumulative bin counts instead of a sort, and a cell's
  // footprint is its distinct-duration count, not its run count.
  std::map<std::uint64_t, ExactHistogram> by_cell;
  std::map<std::uint64_t, std::uint64_t> total_by_cell;
  for (const RunSpan& span : perf.spans) {
    const std::uint64_t dur =
        span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    if (span.worker < workers.size()) {
      workers[span.worker].busy_ns += dur;
      ++workers[span.worker].runs;
    }
    by_cell[span.cell_index].add(static_cast<std::int64_t>(dur));
    total_by_cell[span.cell_index] += dur;
  }
  sidecar.shards.push_back({shard_index, shard_count, perf.wall_ns,
                            perf.drain_ns, perf.threads, perf.runs,
                            std::move(workers)});

  for (const auto& [cell_index, durations] : by_cell) {
    sidecar.cells.push_back(
        {cell_index, durations.total(), total_by_cell[cell_index],
         static_cast<std::uint64_t>(durations.min_key()),
         static_cast<std::uint64_t>(durations.max_key()),
         percentile_ns(durations, 50.0), percentile_ns(durations, 95.0)});
  }
  return sidecar;
}

std::optional<PerfSidecar> merge_perf_sidecars(
    const std::vector<PerfSidecar>& sidecars, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<PerfSidecar> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (sidecars.empty()) return fail("no perf sidecars to merge");

  PerfSidecar merged;
  merged.grid_fingerprint = sidecars.front().grid_fingerprint;
  std::map<std::uint64_t, std::uint64_t> cell_owner;  // cell -> sidecar idx
  for (std::size_t i = 0; i < sidecars.size(); ++i) {
    const PerfSidecar& s = sidecars[i];
    if (s.grid_fingerprint != merged.grid_fingerprint) {
      return fail("grid fingerprint mismatch: sidecar 0 is for grid " +
                  fingerprint_to_hex(merged.grid_fingerprint) +
                  " but sidecar " + std::to_string(i) + " for grid " +
                  fingerprint_to_hex(s.grid_fingerprint) +
                  " (sidecars from different grids cannot merge)");
    }
    merged.runs += s.runs;
    merged.stats_bytes_retained += s.stats_bytes_retained;
    merged.counters.add(s.counters);
    merged.shards.insert(merged.shards.end(), s.shards.begin(),
                         s.shards.end());
    for (const PerfCell& cell : s.cells) {
      auto [it, inserted] = cell_owner.emplace(cell.cell_index, i);
      if (!inserted) {
        return fail("duplicate cell " + std::to_string(cell.cell_index) +
                    ": timed by both sidecar " + std::to_string(it->second) +
                    " and sidecar " + std::to_string(i));
      }
      merged.cells.push_back(cell);
    }
  }
  std::sort(merged.shards.begin(), merged.shards.end(),
            [](const PerfShardExec& a, const PerfShardExec& b) {
              return std::pair(a.shard_count, a.shard_index) <
                     std::pair(b.shard_count, b.shard_index);
            });
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const PerfCell& a, const PerfCell& b) {
              return a.cell_index < b.cell_index;
            });
  // Dispatch sections never merge (`merged` has none): a dispatch run has
  // one dispatcher, and it stamps its own totals onto the merged sidecar
  // after this returns.
  return merged;
}

}  // namespace ccd::obs
