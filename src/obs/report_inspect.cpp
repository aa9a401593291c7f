#include "obs/report_inspect.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "obs/perf_sidecar.hpp"
#include "util/flat_json.hpp"
#include "util/histogram.hpp"
#include "util/numfmt.hpp"
#include "util/stats.hpp"

namespace ccd::obs {

namespace {

namespace jsonu = ccd::jsonu;

// ---- shared parsing helpers ------------------------------------------------

bool set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

std::string pct_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "0.0%";
  return numfmt::fixed(100.0 * static_cast<double>(part) /
                           static_cast<double>(whole),
                       1) +
         "%";
}

// ---- the unified report model ----------------------------------------------

/// One metric of one cell: either a full distribution (a rebuilt Stats, so
/// any percentile is exact) or the five-number summary an aggregate
/// report retains.
struct MetricView {
  std::string name;
  bool full = false;
  Stats stats;  ///< valid iff full
  std::uint64_t count = 0;
  double min = 0, mean = 0, p50 = 0, p99 = 0, max = 0;
};

struct CellView {
  std::uint64_t cell = 0;
  std::string spec;  ///< raw JSON, "" when the artifact has none
  std::map<std::string, std::uint64_t> counters;
  std::vector<MetricView> metrics;
};

struct ReportView {
  std::string kind;  ///< "dist" | "shard" | "report" | "sidecar"
  std::map<std::string, std::string> header;  ///< pass-through members
  std::map<std::string, std::uint64_t> totals;
  std::vector<CellView> cells;
};

MetricView metric_from_stats(std::string name, Stats stats) {
  MetricView m;
  m.name = std::move(name);
  m.full = true;
  m.count = stats.count();
  if (m.count > 0) {
    m.min = stats.min();
    m.mean = stats.mean();
    m.p50 = stats.percentile(50);
    m.p99 = stats.percentile(99);
    m.max = stats.max();
  }
  m.stats = std::move(stats);
  return m;
}

/// Walk the array text `raw`: visit(item, i) for each element until it
/// returns false (having set *error); `not_array` is the error for a
/// malformed array.
template <typename Visit>
bool walk_array(std::string_view raw, const std::string& not_array,
                std::string* error, Visit&& visit) {
  std::size_t i = 0;
  if (jsonu::for_each_item(raw, [&](std::string_view item) {
        return visit(item, i++);
      })) {
    return true;
  }
  // A malformed array visits nothing.
  return i > 0 ? false : set_error(error, not_array);
}

/// Parse a {"count":..,"min":..,...} summary object (aggregate reports).
bool metric_from_summary(const std::string& name, std::string_view raw,
                         MetricView* out, std::string* error) {
  auto flat = jsonu::FlatJson::parse(raw);
  if (!flat) {
    return set_error(error, "metric '" + name + "' is not a JSON object");
  }
  out->name = name;
  out->full = false;
  const auto count_raw = flat->find("count");
  const auto count = count_raw ? jsonu::parse_u64(*count_raw) : std::nullopt;
  if (!count) {
    return set_error(error, "metric '" + name + "' missing valid 'count'");
  }
  out->count = *count;
  struct Field {
    const char* key;
    double MetricView::* member;
  };
  for (const Field& f : {Field{"min", &MetricView::min},
                         Field{"mean", &MetricView::mean},
                         Field{"p50", &MetricView::p50},
                         Field{"p99", &MetricView::p99},
                         Field{"max", &MetricView::max}}) {
    const auto raw_v = flat->find(f.key);
    const auto v = raw_v ? jsonu::parse_double(*raw_v) : std::nullopt;
    if (!v) {
      return set_error(error, "metric '" + name + "' missing valid '" +
                                  f.key + "'");
    }
    out->*(f.member) = *v;
  }
  return true;
}

/// Hoist an aggregate report's nested stats block ("mh"/"sync") into
/// prefixed counters and metrics.
bool hoist_summary_block(const std::string& prefix, std::string_view raw,
                         CellView* cell, std::string* error) {
  auto flat = jsonu::FlatJson::parse(raw);
  if (!flat) {
    return set_error(error, "'" + prefix + "' is not a JSON object");
  }
  for (const auto& [key, value] : flat->members) {
    const std::string name = prefix + "." + std::string(key);
    if (value == "null") continue;  // empty stats
    if (value.starts_with('{')) {
      MetricView m;
      if (!metric_from_summary(name, value, &m, error)) return false;
      cell->metrics.push_back(std::move(m));
      continue;
    }
    const auto v = jsonu::parse_u64(value);
    if (!v) return set_error(error, "bad value for '" + name + "'");
    cell->counters[name] = *v;
  }
  return true;
}

bool parse_dist_cells(std::string_view cells_raw, bool shard_layout,
                      ReportView* view, std::string* error) {
  if (!walk_array(cells_raw, "'cells' is not a JSON array", error,
                  [&](std::string_view item, std::size_t i) {
    const std::string where = "cells[" + std::to_string(i) + "]";
    auto flat = jsonu::FlatJson::parse(item);
    if (!flat) return set_error(error, where + " is not a JSON object");
    CellView cell;
    const auto cell_raw = flat->find("cell");
    const auto index = cell_raw ? jsonu::parse_u64(*cell_raw) : std::nullopt;
    if (!index) return set_error(error, where + " missing valid 'cell'");
    cell.cell = *index;
    if (const auto spec = flat->find("spec")) cell.spec = *spec;
    if (shard_layout) {
      // Shard cell: every member other than the index is either a counter
      // (plain integer) or a statistic ({"h":..} or {"raw":..} object).
      // A checkpoint's ts_ms heartbeat parses as a counter, which is fine
      // for display.
      for (const auto& [member, value] : flat->members) {
        const std::string key(member);
        if (key == "cell") continue;
        if (value.starts_with('{')) {
          Stats stats;
          std::string stats_error;
          if (!stats_from_json(value, &stats, &stats_error)) {
            return set_error(error, where + "." + key + ": " + stats_error);
          }
          cell.metrics.push_back(metric_from_stats(key, std::move(stats)));
          continue;
        }
        const auto v = jsonu::parse_u64(value);
        if (!v) {
          return set_error(error, where + ": bad value for '" + key + "'");
        }
        cell.counters[key] = *v;
      }
    } else {
      if (const auto runs = flat->find("runs")) {
        if (auto v = jsonu::parse_u64(*runs)) cell.counters["runs"] = *v;
      }
      const auto metrics_raw = flat->find("metrics");
      if (!metrics_raw) {
        return set_error(error, where + " missing 'metrics'");
      }
      auto metrics = jsonu::FlatJson::parse(*metrics_raw);
      if (!metrics) {
        return set_error(error, where + ".metrics is not a JSON object");
      }
      for (const auto& [member, value] : metrics->members) {
        const std::string key(member);
        Stats stats;
        std::string stats_error;
        if (!stats_from_json(value, &stats, &stats_error)) {
          return set_error(error, where + ".metrics." + key + ": " +
                                      stats_error);
        }
        cell.metrics.push_back(metric_from_stats(key, std::move(stats)));
      }
    }
    // Deterministic metric order regardless of source member order.
    std::sort(cell.metrics.begin(), cell.metrics.end(),
              [](const MetricView& a, const MetricView& b) {
                return a.name < b.name;
              });
    view->cells.push_back(std::move(cell));
    return true;
  })) {
    return false;
  }
  std::sort(view->cells.begin(), view->cells.end(),
            [](const CellView& a, const CellView& b) {
              return a.cell < b.cell;
            });
  return true;
}

bool parse_aggregate_cells(std::string_view cells_raw, ReportView* view,
                           std::string* error) {
  return walk_array(cells_raw, "'cells' is not a JSON array", error,
                    [&](std::string_view item, std::size_t i) {
    const std::string where = "cells[" + std::to_string(i) + "]";
    auto flat = jsonu::FlatJson::parse(item);
    if (!flat) return set_error(error, where + " is not a JSON object");
    CellView cell;
    const auto cell_raw = flat->find("cell");
    const auto index = cell_raw ? jsonu::parse_u64(*cell_raw) : std::nullopt;
    if (!index) return set_error(error, where + " missing valid 'cell'");
    cell.cell = *index;
    for (const auto& [member, value] : flat->members) {
      const std::string key(member);
      if (key == "cell") continue;
      if (key == "spec") {
        cell.spec = value;
        continue;
      }
      if (key == "mh" || key == "sync") {
        if (!hoist_summary_block(key, value, &cell, error)) return false;
        continue;
      }
      if (value == "null") continue;  // empty stats
      if (value.starts_with('{')) {
        MetricView m;
        if (!metric_from_summary(key, value, &m, error)) return false;
        cell.metrics.push_back(std::move(m));
        continue;
      }
      const auto v = jsonu::parse_u64(value);
      if (!v) {
        return set_error(error, where + ": bad value for '" + key + "'");
      }
      cell.counters[key] = *v;
    }
    std::sort(cell.metrics.begin(), cell.metrics.end(),
              [](const MetricView& a, const MetricView& b) {
                return a.name < b.name;
              });
    view->cells.push_back(std::move(cell));
    return true;
  });
}

/// A perf sidecar's view: the totals and one counter row per timed cell,
/// read by the sidecar's own reader.
bool parse_sidecar(const jsonu::FlatJson& flat, ReportView* view,
                   std::string* error) {
  const auto sidecar = PerfSidecar::from_members(flat, error);
  if (!sidecar) return false;
  view->totals["runs"] = sidecar->runs;
  view->totals["stats_bytes_retained"] = sidecar->stats_bytes_retained;
  for (const PerfCell& timed : sidecar->cells) {
    CellView& cell = view->cells.emplace_back();
    cell.cell = timed.cell_index;
    for (const auto& f : kPerfCellFields) {
      if (f.member != &PerfCell::cell_index) {
        cell.counters[f.key] = timed.*(f.member);
      }
    }
  }
  return true;
}

/// Parse any supported report artifact into the unified view.
bool parse_report(const std::string& json, ReportView* view,
                  std::string* error) {
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) {
    return set_error(error, "input is not a JSON object (report, shard "
                            "report, dist, or perf sidecar expected)");
  }
  const auto format = flat->find("format");
  const std::string_view kind =
      format ? *format
             : (flat->find("grid_seed") && flat->find("cells") ? "aggregate"
                                                                : "");
  for (const char* key :
       {"grid_fingerprint", "grid_seed", "seeds_per_cell", "num_cells",
        "num_runs", "shard_index", "shard_count"}) {
    if (const auto v = flat->find(key)) view->header[key] = *v;
  }
  if (kind == "ccd-perf-sidecar-v1") {
    view->kind = "sidecar";
    return parse_sidecar(*flat, view, error);
  }
  const auto cells_raw = flat->find("cells");
  if (!cells_raw) return set_error(error, "missing 'cells'");

  if (kind == "ccd-dist-v1") {
    view->kind = "dist";
    return parse_dist_cells(*cells_raw, /*shard_layout=*/false, view, error);
  }
  if (kind == "ccd-shard-report-v2") {
    view->kind = "shard";
    return parse_dist_cells(*cells_raw, /*shard_layout=*/true, view, error);
  }
  if (kind == "aggregate") {
    view->kind = "report";
    return parse_aggregate_cells(*cells_raw, view, error);
  }
  return set_error(error,
                   "unrecognized artifact" +
                       (format ? " format '" + std::string(*format) + "'"
                               : std::string(" (no 'format' member and not "
                                             "an aggregate report)")));
}

// ---- rendering -------------------------------------------------------------

/// Coalesce a histogram into at most max_bins display rows of contiguous
/// key ranges.
struct DisplayBin {
  std::int64_t lo = 0, hi = 0;
  std::uint64_t count = 0;
};

std::vector<DisplayBin> display_bins(const ExactHistogram& h, int max_bins) {
  std::vector<DisplayBin> rows;
  if (h.empty()) return rows;
  const auto& bins = h.bins();
  if (bins.size() <= static_cast<std::size_t>(max_bins)) {
    for (const auto& [key, cnt] : bins) rows.push_back({key, key, cnt});
    return rows;
  }
  const std::int64_t lo = h.min_key(), hi = h.max_key();
  // ceil span/max_bins without overflow on the full int64 range.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi >= lo
  const std::uint64_t width =
      (span + static_cast<std::uint64_t>(max_bins) - 1) /
      static_cast<std::uint64_t>(max_bins);
  for (const auto& [key, cnt] : bins) {
    const std::uint64_t slot = static_cast<std::uint64_t>(key - lo) / width;
    const std::int64_t row_lo =
        lo + static_cast<std::int64_t>(slot * width);
    const std::int64_t row_hi =
        row_lo + static_cast<std::int64_t>(width) - 1;
    if (rows.empty() || rows.back().lo != row_lo) {
      rows.push_back({row_lo, row_hi, 0});
    }
    rows.back().count += cnt;
  }
  return rows;
}

std::uint64_t tail_count_over(const Stats& stats, double threshold) {
  std::uint64_t tail = 0;
  if (stats.histogram_active()) {
    for (const auto& [key, cnt] : stats.histogram().bins()) {
      if (static_cast<double>(key) > threshold) tail += cnt;
    }
  } else {
    for (double x : stats.samples()) {
      if (x > threshold) ++tail;
    }
  }
  return tail;
}

void render_metric(const MetricView& m, const InspectOptions& options,
                   std::string* out) {
  *out += "  " + m.name + "  n=" + std::to_string(m.count);
  if (m.count == 0) {
    *out += "  (empty)\n";
    return;
  }
  *out += "  min=" + numfmt::fixed(m.min, 4);
  *out += " p50=" + numfmt::fixed(m.p50, 4);
  if (m.full) {
    *out += " p90=" + numfmt::fixed(m.stats.percentile(90), 4);
  }
  *out += " p99=" + numfmt::fixed(m.p99, 4);
  if (m.full) {
    *out += " p99.9=" + numfmt::fixed(m.stats.percentile(99.9), 4);
  }
  *out += " max=" + numfmt::fixed(m.max, 4);
  *out += " mean=" + numfmt::fixed(m.mean, 4);
  *out += "\n";
  if (!m.full) return;
  if (m.stats.histogram_active()) {
    const ExactHistogram& h = m.stats.histogram();
    std::uint64_t peak = 0;
    const auto rows = display_bins(h, options.max_bins);
    for (const DisplayBin& row : rows) peak = std::max(peak, row.count);
    for (const DisplayBin& row : rows) {
      std::string label = std::to_string(row.lo);
      if (row.hi != row.lo) label += ".." + std::to_string(row.hi);
      const int bar = peak == 0
                          ? 0
                          : static_cast<int>(
                                (row.count * static_cast<std::uint64_t>(
                                                 options.bar_width) +
                                 peak - 1) /
                                peak);
      *out += "    " + std::string(12 > label.size() ? 12 - label.size() : 0,
                                   ' ') +
              label + " |" + std::string(static_cast<std::size_t>(bar), '#') +
              std::string(
                  static_cast<std::size_t>(options.bar_width - bar), ' ') +
              "| " + std::to_string(row.count) + "\n";
    }
  }
  if (options.tail_over) {
    const std::uint64_t tail = tail_count_over(m.stats, *options.tail_over);
    *out += "    tail > " + jsonu::format_double(*options.tail_over) + ": " +
            std::to_string(tail) + " (" + pct_of(tail, m.count) + ")\n";
  }
}

void render_cell(const ReportView& view, const CellView& cell,
                 const InspectOptions& options, std::string* out) {
  *out += "cell " + std::to_string(cell.cell);
  if (!cell.spec.empty()) *out += "  " + cell.spec;
  *out += "\n";
  if (view.kind == "sidecar") {
    *out += " ";
    for (const char* key :
         {"runs", "total_ns", "min_ns", "p50_ns", "p95_ns", "max_ns"}) {
      *out += std::string(" ") + key + "=" +
              std::to_string(cell.counters.at(key));
    }
    *out += "\n";
    return;
  }
  if (!cell.counters.empty()) {
    *out += " ";
    for (const auto& [key, value] : cell.counters) {
      *out += " " + key + "=" + std::to_string(value);
    }
    *out += "\n";
  }
  for (const MetricView& m : cell.metrics) {
    if (!options.only_metric.empty() && m.name != options.only_metric) {
      continue;
    }
    render_metric(m, options, out);
  }
}

// ---- diffing ---------------------------------------------------------------

const MetricView* find_metric(const CellView& cell, const std::string& name) {
  for (const MetricView& m : cell.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Keyed per-metric comparison; appends mismatch lines, returns whether
/// the metric pair differs.
bool diff_metric(std::uint64_t cell, const MetricView& a, const MetricView& b,
                 std::string* out) {
  bool differs = false;
  const std::string key =
      "cell " + std::to_string(cell) + " " + a.name + ".";
  if (a.count != b.count) {
    *out += key + "count: " + std::to_string(a.count) + " -> " +
            std::to_string(b.count) + "\n";
    differs = true;
  }
  struct Field {
    const char* name;
    double MetricView::* member;
  };
  for (const Field& f : {Field{"min", &MetricView::min},
                         Field{"mean", &MetricView::mean},
                         Field{"p50", &MetricView::p50},
                         Field{"p99", &MetricView::p99},
                         Field{"max", &MetricView::max}}) {
    const double av = a.*(f.member), bv = b.*(f.member);
    if (a.count == 0 || b.count == 0) break;
    if (av != bv) {
      *out += key + f.name + ": " + numfmt::fixed(av, 4) + " -> " +
              numfmt::fixed(bv, 4) + " (delta " + numfmt::fixed(bv - av, 4) +
              ")\n";
      differs = true;
    }
  }
  // Full distributions additionally diff per key: the part a five-number
  // summary can never see.
  if (a.full && b.full && a.stats.histogram_active() &&
      b.stats.histogram_active()) {
    std::map<std::int64_t, std::int64_t> delta;
    for (const auto& [k, c] : a.stats.histogram().bins()) {
      delta[k] -= static_cast<std::int64_t>(c);
    }
    for (const auto& [k, c] : b.stats.histogram().bins()) {
      delta[k] += static_cast<std::int64_t>(c);
    }
    int shown = 0;
    int changed = 0;
    for (const auto& [k, d] : delta) {
      if (d == 0) continue;
      ++changed;
      if (shown < 16) {
        *out += key + "bin[" + std::to_string(k) +
                "]: " + (d > 0 ? "+" : "") + std::to_string(d) + "\n";
        ++shown;
      }
      differs = true;
    }
    if (changed > shown) {
      *out += key + "... " + std::to_string(changed - shown) +
              " more changed bins\n";
    }
  }
  return differs;
}

// ---- trace model -----------------------------------------------------------

struct TraceRound {
  std::uint64_t round = 0;
  std::string broadcasters, receive_counts, cd, cm, views;
};

struct TraceRun {
  std::uint64_t run_index = 0, seed = 0;
  std::string solved;
  std::string decisions, crashes;  ///< raw array text
  std::vector<TraceRound> rounds;
  bool has_log = false;
};

struct TraceDoc {
  std::uint64_t cell = 0;
  std::vector<TraceRun> runs;
};

bool parse_trace(const std::string& json, const char* label, TraceDoc* doc,
                 std::string* error) {
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) {
    return set_error(error, std::string(label) + ": not a JSON object");
  }
  const auto format = flat->find("format");
  if (!format || *format != "ccd-cell-trace-v1") {
    return set_error(error, std::string(label) +
                                ": expected format ccd-cell-trace-v1 (a "
                                "ccd_sweep --rerun-cell dump)");
  }
  if (const auto cell = flat->find("cell")) {
    if (auto v = jsonu::parse_u64(*cell)) doc->cell = *v;
  }
  const auto runs_raw = flat->find("runs");
  if (!runs_raw) return set_error(error, std::string(label) + ": no 'runs'");
  return walk_array(*runs_raw, std::string(label) + ": 'runs' is not an array",
                    error, [&](std::string_view item, std::size_t i) {
    const std::string where =
        std::string(label) + ".runs[" + std::to_string(i) + "]";
    auto rf = jsonu::FlatJson::parse(item);
    if (!rf) return set_error(error, where + " is not a JSON object");
    TraceRun run;
    if (const auto v = rf->find("run_index")) {
      if (auto n = jsonu::parse_u64(*v)) run.run_index = *n;
    }
    if (const auto v = rf->find("seed")) {
      if (auto n = jsonu::parse_u64(*v)) run.seed = *n;
    }
    if (const auto v = rf->find("solved")) run.solved = *v;
    if (const auto log_raw = rf->find("log")) {
      run.has_log = true;
      auto lf = jsonu::FlatJson::parse(*log_raw);
      if (!lf) return set_error(error, where + ".log is not a JSON object");
      if (const auto v = lf->find("decisions")) run.decisions = *v;
      if (const auto v = lf->find("crashes")) run.crashes = *v;
      const auto rounds_raw = lf->find("rounds");
      if (!rounds_raw) {
        return set_error(error, where + ".log missing 'rounds'");
      }
      if (!walk_array(*rounds_raw, where + ".log.rounds is not an array",
                      error, [&](std::string_view round_raw, std::size_t) {
        auto rr = jsonu::FlatJson::parse(round_raw);
        if (!rr) {
          return set_error(error, where + ".log.rounds element is not an "
                                          "object");
        }
        TraceRound round;
        if (const auto v = rr->find("round")) {
          if (auto n = jsonu::parse_u64(*v)) round.round = *n;
        }
        if (const auto v = rr->find("broadcasters")) round.broadcasters = *v;
        if (const auto v = rr->find("receive_counts")) {
          round.receive_counts = *v;
        }
        if (const auto v = rr->find("cd")) round.cd = *v;
        if (const auto v = rr->find("cm")) round.cm = *v;
        if (const auto v = rr->find("views")) round.views = *v;
        run.rounds.push_back(std::move(round));
        return true;
      })) {
        return false;
      }
    }
    doc->runs.push_back(std::move(run));
    return true;
  });
}

/// "p2=v1@r5, p0=v1@r6" rendering of a decisions/crashes array.
std::string render_events(const std::string& raw) {
  std::string out;
  std::size_t events = 0;
  const bool array = jsonu::for_each_item(raw, [&](std::string_view item) {
    auto flat = jsonu::FlatJson::parse(item);
    if (!flat) return false;
    ++events;
    if (!out.empty()) out += ", ";
    if (const auto p = flat->find("process")) out += "p" + std::string(*p);
    if (const auto v = flat->find("value")) out += "=v" + std::string(*v);
    if (const auto r = flat->find("round")) out += "@r" + std::string(*r);
    return true;
  });
  if (!array) return raw;
  return events == 0 ? "(none)" : out;
}

/// First process whose per-round view differs; -1 when equal or opaque.
int first_view_divergence(const std::string& a, const std::string& b) {
  // Copies: an escaped string's decoded view lives only for its visit.
  std::vector<std::string> av, bv;
  auto into = [](std::vector<std::string>& items) {
    return [&items](std::string_view item) {
      items.emplace_back(item);
      return true;
    };
  };
  if (!jsonu::for_each_item(a, into(av)) ||
      !jsonu::for_each_item(b, into(bv))) {
    return -1;
  }
  const std::size_t n = std::min(av.size(), bv.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (av[i] != bv[i]) return static_cast<int>(i);
  }
  if (av.size() != bv.size()) return static_cast<int>(n);
  return -1;
}

}  // namespace

// ---- public API ------------------------------------------------------------

bool render_report(const std::string& json, const InspectOptions& options,
                   std::string* out, std::string* error) {
  ReportView view;
  if (!parse_report(json, &view, error)) return false;
  *out += view.kind;
  for (const char* key : {"grid_fingerprint", "grid_seed", "seeds_per_cell",
                          "num_cells", "shard_index", "shard_count"}) {
    auto it = view.header.find(key);
    if (it != view.header.end()) {
      *out += std::string("  ") + key + "=" + it->second;
    }
  }
  *out += "  cells_listed=" + std::to_string(view.cells.size());
  *out += "\n";
  for (const auto& [key, value] : view.totals) {
    *out += key + "=" + std::to_string(value) + "\n";
  }
  for (const CellView& cell : view.cells) {
    if (options.only_cell && cell.cell != *options.only_cell) continue;
    render_cell(view, cell, options, out);
  }
  return true;
}

bool diff_reports(const std::string& a_json, const std::string& b_json,
                  std::string* out, bool* differs, std::string* error) {
  ReportView a, b;
  if (!parse_report(a_json, &a, error)) return false;
  if (!parse_report(b_json, &b, error)) return false;
  *differs = false;
  if (a.kind != b.kind) {
    return set_error(error, "cannot diff a " + a.kind + " against a " +
                                b.kind + " artifact");
  }
  // Identity first: two artifacts from different grids can still have
  // coinciding cell contents, and that coincidence should not read as
  // "identical".
  std::set<std::string> header_keys;
  for (const auto& [key, value] : a.header) header_keys.insert(key);
  for (const auto& [key, value] : b.header) header_keys.insert(key);
  for (const std::string& key : header_keys) {
    auto av = a.header.find(key);
    auto bv = b.header.find(key);
    const std::string a_text =
        av == a.header.end() ? "(absent)" : av->second;
    const std::string b_text =
        bv == b.header.end() ? "(absent)" : bv->second;
    if (a_text != b_text) {
      *out += key + ": " + a_text + " -> " + b_text + "\n";
      *differs = true;
    }
  }
  std::map<std::uint64_t, const CellView*> b_cells;
  for (const CellView& cell : b.cells) b_cells[cell.cell] = &cell;
  std::set<std::uint64_t> seen;
  for (const CellView& ac : a.cells) {
    seen.insert(ac.cell);
    auto it = b_cells.find(ac.cell);
    if (it == b_cells.end()) {
      *out += "cell " + std::to_string(ac.cell) + ": only in A\n";
      *differs = true;
      continue;
    }
    const CellView& bc = *it->second;
    // Counters: union of keys, keyed mismatches.
    std::set<std::string> counter_keys;
    for (const auto& [key, value] : ac.counters) counter_keys.insert(key);
    for (const auto& [key, value] : bc.counters) counter_keys.insert(key);
    for (const std::string& key : counter_keys) {
      auto av = ac.counters.find(key);
      auto bv = bc.counters.find(key);
      const std::string a_text = av == ac.counters.end()
                                     ? "(absent)"
                                     : std::to_string(av->second);
      const std::string b_text = bv == bc.counters.end()
                                     ? "(absent)"
                                     : std::to_string(bv->second);
      if (a_text != b_text) {
        *out += "cell " + std::to_string(ac.cell) + " " + key + ": " +
                a_text + " -> " + b_text + "\n";
        *differs = true;
      }
    }
    std::set<std::string> metric_names;
    for (const MetricView& m : ac.metrics) metric_names.insert(m.name);
    for (const MetricView& m : bc.metrics) metric_names.insert(m.name);
    for (const std::string& name : metric_names) {
      const MetricView* am = find_metric(ac, name);
      const MetricView* bm = find_metric(bc, name);
      if (!am || !bm) {
        *out += "cell " + std::to_string(ac.cell) + " " + name +
                ": only in " + (am ? "A" : "B") + "\n";
        *differs = true;
        continue;
      }
      if (diff_metric(ac.cell, *am, *bm, out)) *differs = true;
    }
  }
  for (const CellView& bc : b.cells) {
    if (!seen.count(bc.cell)) {
      *out += "cell " + std::to_string(bc.cell) + ": only in B\n";
      *differs = true;
    }
  }
  if (!*differs) {
    *out += "identical: " + std::to_string(a.cells.size()) + " cells match\n";
  }
  return true;
}

bool diff_traces(const std::string& a_json, const std::string& b_json,
                 std::string* out, bool* differs, std::string* error) {
  TraceDoc a, b;
  if (!parse_trace(a_json, "A", &a, error)) return false;
  if (!parse_trace(b_json, "B", &b, error)) return false;
  *differs = false;
  *out += "A: cell " + std::to_string(a.cell) + ", " +
          std::to_string(a.runs.size()) + " runs; B: cell " +
          std::to_string(b.cell) + ", " + std::to_string(b.runs.size()) +
          " runs\n";
  const std::size_t n = std::min(a.runs.size(), b.runs.size());
  if (a.runs.size() != b.runs.size()) {
    *out += "run count differs: " + std::to_string(a.runs.size()) + " vs " +
            std::to_string(b.runs.size()) + " (comparing first " +
            std::to_string(n) + ")\n";
    *differs = true;
  }
  std::size_t identical = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRun& ar = a.runs[i];
    const TraceRun& br = b.runs[i];
    const std::string head =
        "run " + std::to_string(i) + " (A run_index=" +
        std::to_string(ar.run_index) + " seed=" + std::to_string(ar.seed) +
        " / B run_index=" + std::to_string(br.run_index) +
        " seed=" + std::to_string(br.seed) + ")";
    // Locate the first divergent round.
    const std::size_t rounds = std::min(ar.rounds.size(), br.rounds.size());
    std::size_t div = rounds;
    for (std::size_t r = 0; r < rounds; ++r) {
      const TraceRound& x = ar.rounds[r];
      const TraceRound& y = br.rounds[r];
      if (x.broadcasters != y.broadcasters ||
          x.receive_counts != y.receive_counts || x.cd != y.cd ||
          x.cm != y.cm || x.views != y.views) {
        div = r;
        break;
      }
    }
    const bool len_differs = ar.rounds.size() != br.rounds.size();
    const bool events_differ =
        ar.decisions != br.decisions || ar.crashes != br.crashes;
    if (div == rounds && !len_differs && !events_differ) {
      ++identical;
      continue;
    }
    *differs = true;
    *out += head + ":\n";
    if (div < rounds) {
      const TraceRound& x = ar.rounds[div];
      const TraceRound& y = br.rounds[div];
      *out += "  first divergent round: " + std::to_string(x.round) + "\n";
      if (x.broadcasters != y.broadcasters) {
        *out += "    broadcasters: " + x.broadcasters + " vs " +
                y.broadcasters + "\n";
      }
      if (x.receive_counts != y.receive_counts) {
        *out += "    receive_counts: " + x.receive_counts + " vs " +
                y.receive_counts + "\n";
      }
      if (x.cd != y.cd) {
        *out += "    cd advice: " + x.cd + " vs " + y.cd + "\n";
      }
      if (x.cm != y.cm) {
        *out += "    cm advice: " + x.cm + " vs " + y.cm + "\n";
      }
      if (x.views != y.views) {
        const int p = first_view_divergence(x.views, y.views);
        *out += "    views diverge";
        if (p >= 0) *out += " first at p" + std::to_string(p);
        *out += "\n";
      }
    } else if (len_differs) {
      *out += "  aligned rounds identical; length differs: " +
              std::to_string(ar.rounds.size()) + " vs " +
              std::to_string(br.rounds.size()) + " rounds\n";
    }
    if (ar.decisions != br.decisions) {
      *out += "  decisions: " + render_events(ar.decisions) + "  vs  " +
              render_events(br.decisions) + "\n";
    }
    if (ar.crashes != br.crashes) {
      *out += "  crashes: " + render_events(ar.crashes) + "  vs  " +
              render_events(br.crashes) + "\n";
    }
    if (ar.solved != br.solved) {
      *out += "  solved: " + ar.solved + " vs " + br.solved + "\n";
    }
  }
  *out += std::to_string(identical) + "/" + std::to_string(n) +
          " aligned runs identical\n";
  return true;
}

// ---- bench diff ------------------------------------------------------------

namespace {

/// One ccd-bench-v2 entry as the gate sees it.  `median` is empty when the
/// artifact's value is missing, non-numeric or non-finite.
struct BenchEntry {
  std::string unit;
  std::optional<double> median;
  std::optional<double> bound;
};

/// Parse a ccd-bench-v2 artifact into name -> entry.  The baseline side is
/// strict (finite medians, bounds in (0, 1]); the new side only needs each
/// entry's name, so a broken median reaches the gate instead of an error.
bool parse_bench(const std::string& json, bool baseline,
                 std::map<std::string, BenchEntry>* entries,
                 std::string* error) {
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) return set_error(error, "bench artifact is not a JSON object");
  const auto format = flat->find("format");
  if (!format || *format != "ccd-bench-v2") {
    return set_error(error, "expected format ccd-bench-v2");
  }
  const auto items_raw = flat->find("entries");
  return walk_array(items_raw.value_or(""), "'entries' is not a JSON array",
                    error, [&](std::string_view item, std::size_t) {
    auto ef = jsonu::FlatJson::parse(item);
    const auto found = ef ? ef->find("name") : std::nullopt;
    if (!found) return set_error(error, "bench entry without a 'name'");
    const std::string name(*found);
    BenchEntry entry;
    if (const auto unit = ef->find("unit")) entry.unit = *unit;
    if (const auto median = ef->find("median")) {
      entry.median = jsonu::parse_double(*median);
    }
    if (baseline) {
      if (!entry.median) {
        return set_error(error, "entry '" + name + "' missing valid 'median'");
      }
      if (const auto bound = ef->find("bound")) {
        entry.bound = jsonu::parse_double(*bound);
        if (!entry.bound || *entry.bound <= 0 || *entry.bound > 1) {
          return set_error(error, "entry '" + name + "' has bound '" +
                                      std::string(*bound) +
                                      "' outside (0, 1]");
        }
        if (*entry.median <= 0) {
          return set_error(error, "gated entry '" + name +
                                      "' has a non-positive median");
        }
      }
    }
    if (!entries->emplace(name, std::move(entry)).second) {
      return set_error(error, "duplicate entry '" + name + "'");
    }
    return true;
  });
}

}  // namespace

bool diff_bench(const std::string& old_json, const std::string& new_json,
                std::string* out, bool* regressed, std::string* error) {
  std::map<std::string, BenchEntry> old_entries, new_entries;
  if (!parse_bench(old_json, true, &old_entries, error)) {
    if (error) *error = "old: " + *error;
    return false;
  }
  if (!parse_bench(new_json, false, &new_entries, error)) {
    if (error) *error = "new: " + *error;
    return false;
  }
  *regressed = false;
  for (const auto& [name, old_entry] : old_entries) {
    *out += name + ": " + numfmt::general(*old_entry.median, 6) + " -> ";
    const auto it = new_entries.find(name);
    // `now` is a plain double, read only where `have_now` holds.
    const bool have_now =
        it != new_entries.end() && it->second.median.has_value();
    const double now = have_now ? *it->second.median : 0.0;
    if (it == new_entries.end()) {
      *out += "missing";
    } else if (!have_now) {
      *out += "not a finite number";
    } else {
      const double change = (now - *old_entry.median) / *old_entry.median;
      *out += numfmt::general(now, 6) + " " + old_entry.unit + " (" +
              (change >= 0 ? "+" : "") + numfmt::fixed(100.0 * change, 1) +
              "%)";
    }
    if (!old_entry.bound) {
      *out += " [not gated]\n";
      continue;
    }
    // Every gated entry is a rate or a ratio: higher is better.
    const double floor = *old_entry.median * (1.0 - *old_entry.bound);
    *out += " [bound -" + numfmt::fixed(100.0 * *old_entry.bound, 1) + "%]";
    if (!have_now || now < floor) {
      *out += "  REGRESSION";
      *regressed = true;
    }
    *out += "\n";
  }
  for (const auto& [name, entry] : new_entries) {
    if (!old_entries.count(name)) *out += name + ": new entry\n";
  }
  return true;
}

}  // namespace ccd::obs
