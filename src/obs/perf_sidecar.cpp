#include "obs/perf_sidecar.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "util/flat_json.hpp"
#include "util/histogram.hpp"

namespace ccd::obs {

namespace {

namespace jsonu = ccd::jsonu;
using jsonu::fingerprint_from_hex;
using jsonu::fingerprint_to_hex;
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// Fetch member `key` of `flat` as a u64 <= `max` into `out`; keyed error
/// otherwise.
bool need_u64(const jsonu::FlatJson& flat, const char* key, std::uint64_t& out,
              std::string* error, const char* where,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const auto raw = flat.find(key);
  if (!raw) {
    if (error) {
      *error = std::string(where) + " missing key '" + key + "'";
    }
    return false;
  }
  const auto v = jsonu::parse_u64(*raw, max);
  if (!v) {
    if (error) {
      *error = "bad value '" + std::string(*raw) + "' for key '" + key +
               "' in " + where;
    }
    return false;
  }
  out = *v;
  return true;
}

void append_counters(std::string& out, const EngineCounters& counters) {
  out += "{";
  bool first = true;
  for (const EngineCounterField& f : kEngineCounterFields) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += f.key;
    out += "\":" + std::to_string(counters.*(f.member));
  }
  out += "}";
}

bool parse_counters(std::string_view raw, EngineCounters& counters,
                    std::string* error) {
  auto flat = jsonu::FlatJson::parse(raw);
  if (!flat) {
    if (error) *error = "'counters' is not a flat JSON object";
    return false;
  }
  for (const EngineCounterField& f : kEngineCounterFields) {
    std::uint64_t v = 0;
    if (!need_u64(*flat, f.key, v, error, "'counters'")) return false;
    counters.*(f.member) = v;
  }
  return true;
}

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

}  // namespace

std::string PerfSidecar::to_json() const {
  std::string out = "{\"format\":\"ccd-perf-sidecar-v1\"";
  out += ",\"grid_fingerprint\":\"" + fingerprint_to_hex(grid_fingerprint) +
         "\"";
  out += ",\"runs\":" + std::to_string(runs);
  out += ",\"stats_bytes_retained\":" + std::to_string(stats_bytes_retained);
  out += ",\"counters\":";
  append_counters(out, counters);
  out += ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const PerfShardExec& s = shards[i];
    if (i > 0) out += ",";
    out += "{\"shard_index\":" + std::to_string(s.shard_index);
    out += ",\"shard_count\":" + std::to_string(s.shard_count);
    out += ",\"wall_ns\":" + std::to_string(s.wall_ns);
    out += ",\"drain_ns\":" + std::to_string(s.drain_ns);
    out += ",\"threads\":" + std::to_string(s.threads);
    out += ",\"runs\":" + std::to_string(s.runs);
    out += ",\"workers\":[";
    for (std::size_t w = 0; w < s.workers.size(); ++w) {
      if (w > 0) out += ",";
      out += "{\"worker\":" + std::to_string(s.workers[w].worker);
      out += ",\"busy_ns\":" + std::to_string(s.workers[w].busy_ns);
      out += ",\"runs\":" + std::to_string(s.workers[w].runs) + "}";
    }
    out += "]}";
  }
  out += "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PerfCell& c = cells[i];
    if (i > 0) out += ",";
    out += "{\"cell\":" + std::to_string(c.cell_index);
    out += ",\"runs\":" + std::to_string(c.runs);
    out += ",\"total_ns\":" + std::to_string(c.total_ns);
    out += ",\"min_ns\":" + std::to_string(c.min_ns);
    out += ",\"max_ns\":" + std::to_string(c.max_ns);
    out += ",\"p50_ns\":" + std::to_string(c.p50_ns);
    out += ",\"p95_ns\":" + std::to_string(c.p95_ns) + "}";
  }
  out += "]";
  if (dispatch) {
    const PerfDispatch& d = *dispatch;
    out += ",\"dispatch\":{\"workers\":" + std::to_string(d.workers);
    out += ",\"batches\":" + std::to_string(d.batches);
    out += ",\"steals\":" + std::to_string(d.steals);
    out += ",\"requeues\":" + std::to_string(d.requeues);
    out += ",\"worker_restarts\":" + std::to_string(d.worker_restarts);
    out += ",\"duplicate_cells\":" + std::to_string(d.duplicate_cells);
    out += ",\"wall_ns\":" + std::to_string(d.wall_ns);
    out += ",\"slots\":[";
    for (std::size_t i = 0; i < d.slots.size(); ++i) {
      const PerfDispatchSlot& s = d.slots[i];
      if (i > 0) out += ",";
      out += "{\"slot\":" + std::to_string(s.slot);
      out += ",\"batches\":" + std::to_string(s.batches);
      out += ",\"cells\":" + std::to_string(s.cells);
      out += ",\"busy_ns\":" + std::to_string(s.busy_ns);
      out += ",\"busy_permille\":" + std::to_string(s.busy_permille);
      out += ",\"restarts\":" + std::to_string(s.restarts) + "}";
    }
    out += "]}";
  }
  out += "}";
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
  if (!need_u64(flat, "runs", sidecar.runs, error, "perf sidecar")) {
    return std::nullopt;
  }
  // Optional: sidecars written before the histogram-stats work lack it.
  if (flat.find("stats_bytes_retained") &&
      !need_u64(flat, "stats_bytes_retained", sidecar.stats_bytes_retained,
                error, "perf sidecar")) {
    return std::nullopt;
  }
  const auto counters_raw = flat.find("counters");
  if (!counters_raw) return fail("missing key 'counters'");
  if (!parse_counters(*counters_raw, sidecar.counters, error)) {
    return std::nullopt;
  }

  // Array members of objects with per-element keyed errors: a failed
  // element has already set *error.
  auto walk_objects = [&](std::string_view raw, const std::string& name,
                          const std::string& where, auto&& read) {
    std::size_t i = 0;
    if (jsonu::for_each_item(raw, [&](std::string_view item) {
          const std::string at = where + "[" + std::to_string(i++) + "]";
          auto obj = jsonu::FlatJson::parse(item);
          if (!obj) fail(at + " is not a flat JSON object");
          return obj && read(*obj, at);
        })) {
      return true;
    }
    if (i == 0) fail(name + " is not a JSON array");  // visited nothing
    return false;
  };

  const auto shards_raw = flat.find("shards");
  if (!shards_raw) return fail("missing key 'shards'");
  if (!walk_objects(*shards_raw, "'shards'", "shards",
                    [&](const jsonu::FlatJson& sf, const std::string& where) {
    PerfShardExec s;
    std::uint64_t threads = 0;
    if (!need_u64(sf, "shard_index", s.shard_index, error, where.c_str()) ||
        !need_u64(sf, "shard_count", s.shard_count, error, where.c_str()) ||
        !need_u64(sf, "wall_ns", s.wall_ns, error, where.c_str()) ||
        !need_u64(sf, "drain_ns", s.drain_ns, error, where.c_str()) ||
        !need_u64(sf, "threads", threads, error, where.c_str(), kU32Max) ||
        !need_u64(sf, "runs", s.runs, error, where.c_str())) {
      return false;
    }
    s.threads = static_cast<std::uint32_t>(threads);
    const auto workers_raw = sf.find("workers");
    if (!workers_raw) {
      fail(where + " missing key 'workers'");
      return false;
    }
    if (!walk_objects(*workers_raw, where + ".workers", where + ".workers",
                      [&](const jsonu::FlatJson& wf, const std::string& wwhere) {
      PerfWorker pw;
      std::uint64_t id = 0;
      if (!need_u64(wf, "worker", id, error, wwhere.c_str(), kU32Max) ||
          !need_u64(wf, "busy_ns", pw.busy_ns, error, wwhere.c_str()) ||
          !need_u64(wf, "runs", pw.runs, error, wwhere.c_str())) {
        return false;
      }
      pw.worker = static_cast<std::uint32_t>(id);
      s.workers.push_back(pw);
      return true;
    })) {
      return false;
    }
    sidecar.shards.push_back(std::move(s));
    return true;
  })) {
    return std::nullopt;
  }

  const auto cells_raw = flat.find("cells");
  if (!cells_raw) return fail("missing key 'cells'");
  if (!walk_objects(*cells_raw, "'cells'", "cells",
                    [&](const jsonu::FlatJson& cf, const std::string& where) {
    PerfCell c;
    if (!need_u64(cf, "cell", c.cell_index, error, where.c_str()) ||
        !need_u64(cf, "runs", c.runs, error, where.c_str()) ||
        !need_u64(cf, "total_ns", c.total_ns, error, where.c_str()) ||
        !need_u64(cf, "min_ns", c.min_ns, error, where.c_str()) ||
        !need_u64(cf, "max_ns", c.max_ns, error, where.c_str()) ||
        !need_u64(cf, "p50_ns", c.p50_ns, error, where.c_str()) ||
        !need_u64(cf, "p95_ns", c.p95_ns, error, where.c_str())) {
      return false;
    }
    sidecar.cells.push_back(c);
    return true;
  })) {
    return std::nullopt;
  }

  // Optional: only dispatcher-merged sidecars carry dispatch totals.
  if (const auto dispatch_raw = flat.find("dispatch")) {
    auto df = jsonu::FlatJson::parse(*dispatch_raw);
    if (!df) return fail("'dispatch' is not a flat JSON object");
    PerfDispatch d;
    if (!need_u64(*df, "workers", d.workers, error, "'dispatch'") ||
        !need_u64(*df, "batches", d.batches, error, "'dispatch'") ||
        !need_u64(*df, "steals", d.steals, error, "'dispatch'") ||
        !need_u64(*df, "requeues", d.requeues, error, "'dispatch'") ||
        !need_u64(*df, "worker_restarts", d.worker_restarts, error,
                  "'dispatch'") ||
        !need_u64(*df, "duplicate_cells", d.duplicate_cells, error,
                  "'dispatch'") ||
        !need_u64(*df, "wall_ns", d.wall_ns, error, "'dispatch'")) {
      return std::nullopt;
    }
    const auto slots_raw = df->find("slots");
    if (!slots_raw) return fail("'dispatch' missing key 'slots'");
    if (!walk_objects(*slots_raw, "'dispatch'.slots", "dispatch.slots",
                      [&](const jsonu::FlatJson& sf, const std::string& where) {
      PerfDispatchSlot s;
      std::uint64_t slot_id = 0;
      if (!need_u64(sf, "slot", slot_id, error, where.c_str()) ||
          !need_u64(sf, "batches", s.batches, error, where.c_str()) ||
          !need_u64(sf, "cells", s.cells, error, where.c_str()) ||
          !need_u64(sf, "busy_ns", s.busy_ns, error, where.c_str()) ||
          !need_u64(sf, "busy_permille", s.busy_permille, error,
                    where.c_str()) ||
          !need_u64(sf, "restarts", s.restarts, error, where.c_str())) {
        return false;
      }
      s.slot = static_cast<std::uint32_t>(slot_id);
      d.slots.push_back(s);
      return true;
    })) {
      return std::nullopt;
    }
    sidecar.dispatch = std::move(d);
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

  PerfShardExec shard;
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  shard.wall_ns = perf.wall_ns;
  shard.drain_ns = perf.drain_ns;
  shard.threads = perf.threads;
  shard.runs = perf.runs;
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
  shard.workers = std::move(workers);
  sidecar.shards.push_back(std::move(shard));

  for (const auto& [cell_index, durations] : by_cell) {
    PerfCell cell;
    cell.cell_index = cell_index;
    cell.runs = durations.total();
    cell.total_ns = total_by_cell[cell_index];
    cell.min_ns = static_cast<std::uint64_t>(durations.min_key());
    cell.max_ns = static_cast<std::uint64_t>(durations.max_key());
    cell.p50_ns = percentile_ns(durations, 50.0);
    cell.p95_ns = percentile_ns(durations, 95.0);
    sidecar.cells.push_back(cell);
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
    for (const PerfShardExec& shard : s.shards) {
      merged.shards.push_back(shard);
    }
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
              return a.shard_count != b.shard_count
                         ? a.shard_count < b.shard_count
                         : a.shard_index < b.shard_index;
            });
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const PerfCell& a, const PerfCell& b) {
              return a.cell_index < b.cell_index;
            });
  // Dispatch sections never merge: a dispatch run has one dispatcher, and
  // it stamps its own totals onto the merged sidecar after this returns.
  merged.dispatch.reset();
  return merged;
}

}  // namespace ccd::obs
