// perfbench: measure one workload of the sweep stack and check its reports.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR [--worker-bin PATH] [--trace-out PATH]
//
// --trace 0 repeats the program's own untraced path for S seconds (at
// least twice) and reports the end-to-end metrics: each piece of a pass
// (PassResult::pieces_ns) at its fastest over the passes, summed, and
// setup_s as the median.  --trace 1 alternates untraced and traced passes
// for S seconds, checks that tracing changes no report byte, reports the
// fastest traced pass's per-layer metrics, runs the probes once on that
// pass's output, and writes its spans as a Chrome trace.  wide_grid's
// traced run also sends its grid through run_dispatch every round (this
// needs --worker-bin): the fastest fleet pass gives the dispatch layer's
// numbers and a second trace, and every fleet pass must reproduce the
// in-process reports.  Every pass of either mode must produce the same
// reports.
//
// The last stdout line is one JSON object: correct / attempted / failed /
// metrics, plus the report hashes and the list of checks made.  run.py
// turns it into the benchmark's result line.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace {

using perfbench::Hashes;
using perfbench::LayerMetrics;
using perfbench::PassResult;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2.0;
}

/// Peak resident memory of this process in MB.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// The fastest of a kind of traced pass: its spans and layer numbers.
struct Fastest {
  double wall_s = 0;
  perfbench::Tracer tracer;
  LayerMetrics layers;
  perfbench::Artifacts artifacts;

  /// Keeps this pass if it is the first or the fastest so far.
  void offer(const PassResult& pass, std::size_t passes,
             perfbench::Tracer& t, LayerMetrics& l, perfbench::Artifacts& a) {
    if (passes > 1 && pass.wall_s >= wall_s) return;
    wall_s = pass.wall_s;
    tracer = std::move(t);
    layers = std::move(l);
    artifacts = std::move(a);
  }
};

void write_trace(const std::string& path, const perfbench::Tracer& tracer,
                 const std::string& title) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << tracer.chrome_trace_json(title);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--worker-bin PATH] "
               "[--trace-out PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir, worker_bin, trace_out;
  std::uint64_t seed = 1;
  double run_seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      run_seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--worker-bin") {
      worker_bin = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage();
      return 2;
    }
  }
  const auto workload = perfbench::parse_workload(workload_name);
  if (!workload || out_dir.empty() || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  const bool fleet = trace == 1 && *workload == perfbench::Workload::kWideGrid;
  const perfbench::Size size = perfbench::Size::kFull;
  perfbench::FleetConfig fleet_config;
  fleet_config.worker_bin = worker_bin;
  fleet_config.work_dir = out_dir + "/fleet";
  if (fleet && (worker_bin.empty() ||
                (::mkdir(fleet_config.work_dir.c_str(), 0777) != 0 &&
                 errno != EEXIST))) {
    std::fprintf(stderr, "perfbench: wide_grid's traced run needs "
                         "--worker-bin and a writable --out-dir\n");
    return 2;
  }

  std::vector<PassResult> untraced, traced, fleets;
  Fastest best, best_fleet;
  double peak_rss = 0;
  const std::uint64_t start = perfbench::now_ns();
  auto elapsed_s = [&] {
    return static_cast<double>(perfbench::now_ns() - start) * 1e-9;
  };
  auto failed_pass = [](const std::vector<PassResult>& passes) {
    return !passes.empty() && !passes.back().error.empty();
  };

  if (trace == 0) {
    do {
      untraced.push_back(
          perfbench::run_untraced(*workload, seed, size, out_dir));
      // A fresh process's footprint: later passes only add allocator
      // fragmentation.
      if (untraced.size() == 1) peak_rss = peak_rss_mb();
    } while (!failed_pass(untraced) &&
             (elapsed_s() < run_seconds || untraced.size() < 2));
  } else {
    do {
      untraced.push_back(
          perfbench::run_untraced(*workload, seed, size, out_dir));
      {
        perfbench::Tracer tracer;
        LayerMetrics layers;
        perfbench::Artifacts kept;
        traced.push_back(perfbench::run_traced(*workload, seed, size, out_dir,
                                               tracer, layers, &kept));
        best.offer(traced.back(), traced.size(), tracer, layers, kept);
      }
      if (fleet) {
        perfbench::Tracer tracer;
        LayerMetrics layers;
        perfbench::Artifacts none;
        fleets.push_back(perfbench::run_fleet(*workload, seed, size, out_dir,
                                              fleet_config, tracer, layers));
        best_fleet.offer(fleets.back(), fleets.size(), tracer, layers, none);
      }
    } while (!failed_pass(untraced) && !failed_pass(traced) &&
             !failed_pass(fleets) && elapsed_s() < run_seconds);
  }

  // ---- checks ----
  std::vector<Check> checks;
  std::uint64_t attempted = 0, failed = 0;
  // Every pass must reproduce the first pass's reports and counters.
  const Hashes reference = untraced.front().hashes;
  const ccd::obs::EngineCounters reference_counters =
      untraced.front().counters;
  auto judge = [&](const char* name, const std::vector<PassResult>& passes) {
    Check check{name, true, ""};
    for (const PassResult& pass : passes) {
      attempted += pass.runs;
      failed += pass.keyed_errors;
      if (!pass.error.empty()) {
        failed += pass.runs;
        check.ok = false;
        check.detail = pass.error;
      } else if (!(pass.hashes == reference) ||
                 !(pass.counters == reference_counters)) {
        failed += pass.runs;
        check.ok = false;
        check.detail = "report hashes or engine counters differ";
      } else if (pass.keyed_errors > 0) {
        check.ok = false;
        check.detail = std::to_string(pass.keyed_errors) + " keyed errors";
      }
    }
    checks.push_back(check);
  };
  judge("untraced passes agree", untraced);
  if (!traced.empty()) judge("traced == untraced", traced);
  if (!fleets.empty()) judge("run_dispatch fleet == in-process", fleets);

  // ---- metrics ----
  // The untraced times are each piece's fastest time over the passes,
  // summed.  A shared host slows whole passes, and even the best of many,
  // in stretches of seconds; the short pieces of some pass still land in
  // its quiet milliseconds.  setup_s is the median over the passes.
  std::map<std::string, double> metrics;
  std::vector<std::uint64_t> fastest;
  for (const PassResult& pass : untraced) {
    if (!pass.error.empty()) continue;
    if (fastest.empty()) {
      fastest = pass.pieces_ns;
    } else if (pass.pieces_ns.size() != fastest.size()) {
      checks.push_back({"passes cut into the same pieces", false, ""});
      failed += pass.runs;
      break;
    }
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], pass.pieces_ns[i]);
    }
  }
  auto sum_s = [&](std::size_t first, std::size_t count) {
    double ns = 0;
    for (std::size_t i = first; i < first + count && i < fastest.size(); ++i) {
      ns += static_cast<double>(fastest[i]);
    }
    return ns * 1e-9;
  };
  if (trace == 0) {
    const double wall_s = sum_s(0, fastest.size());
    std::vector<double> setups, cpu_per_wall;
    for (const PassResult& pass : untraced) {
      setups.push_back(pass.setup_s);
      if (pass.wall_s > 0) cpu_per_wall.push_back(pass.cpu_s / pass.wall_s);
    }
    const PassResult& first = untraced.front();
    const double exec_s = sum_s(1, first.exec_pieces);
    metrics["report_wall_s"] = wall_s;
    metrics["runs_per_s"] =
        exec_s > 0 ? static_cast<double>(first.runs) / exec_s : 0.0;
    metrics["rounds_per_s"] =
        exec_s > 0 ? static_cast<double>(first.counters.rounds) / exec_s
                   : 0.0;
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = peak_rss;
    // CPU per wall second is steady where both are not: it scales the
    // filtered wall time.
    metrics["cpu_s"] = wall_s * median(cpu_per_wall);
  } else {
    metrics.insert(best.layers.begin(), best.layers.end());
    for (const auto& [name, value] : best_fleet.layers) metrics[name] = value;
    if (traced.back().error.empty()) {
      LayerMetrics probes;
      perfbench::Scope scope(&best.tracer, "probes", "probe");
      perfbench::topology_probe(best.artifacts, best.tracer, probes);
      perfbench::factory_probe(best.artifacts, best.tracer, probes);
      std::string error;
      const bool ok =
          perfbench::shard_probe(best.artifacts, best.tracer, probes, &error);
      checks.push_back({"shard encode/merge == report", ok, error});
      if (!ok) failed += traced.back().runs;
      for (const auto& [name, value] : probes) metrics[name] = value;
    }
    const double rounds = metrics["engine.rounds"];
    metrics["engine.ns_per_round"] =
        rounds > 0
            ? (metrics["engine.lane_s"] + metrics["engine.scalar_s"]) * 1e9 /
                  rounds
            : 0.0;
    // Fastest traced pass over fastest untraced pass.
    double untraced_best = 0;
    for (const PassResult& pass : untraced) {
      if (untraced_best == 0 || pass.wall_s < untraced_best) {
        untraced_best = pass.wall_s;
      }
    }
    metrics["trace.overhead_ratio"] =
        untraced_best > 0 ? best.wall_s / untraced_best : 0.0;
  }
  if (!trace_out.empty()) {
    const std::string title =
        std::string("perfbench ") + perfbench::to_string(*workload);
    write_trace(trace_out, best.tracer, title);
    if (fleet) {
      // <name>.trace.json -> <name>.fleet.trace.json
      std::string fleet_out = trace_out;
      const std::string suffix = ".trace.json";
      if (fleet_out.size() > suffix.size() &&
          fleet_out.compare(fleet_out.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        fleet_out.insert(fleet_out.size() - suffix.size(), ".fleet");
      } else {
        fleet_out += ".fleet";
      }
      write_trace(fleet_out, best_fleet.tracer, title + " run_dispatch");
    }
  }

  bool correct = failed == 0;
  for (const Check& check : checks) correct = correct && check.ok;
  const auto& units = trace == 0 ? perfbench::end_to_end_units()
                                 : perfbench::layer_metric_units();
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + units[i].first + "\":{\"value\":" +
           number(metrics[units[i].first]) + ",\"unit\":\"" +
           units[i].second + "\"}";
  }
  out += "},\"workload\":\"" + workload_name + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"passes\":{\"untraced\":" + std::to_string(untraced.size()) +
         ",\"traced\":" + std::to_string(traced.size()) +
         ",\"fleet\":" + std::to_string(fleets.size()) + "}";
  out += ",\"hashes\":{\"json\":\"" + perfbench::to_hex(reference.json) +
         "\",\"csv\":\"" + perfbench::to_hex(reference.csv) +
         "\",\"dist\":\"" + perfbench::to_hex(reference.dist) + "\"}";
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":\"" + checks[i].name + "\",\"ok\":" +
           (checks[i].ok ? "true" : "false") + ",\"detail\":\"" +
           json_escape(checks[i].detail) + "\"}";
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return correct ? 0 : 1;
}
