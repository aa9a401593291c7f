// ccd_dispatch_bench: static shards vs the work-stealing dispatcher on a
// deliberately skewed fleet.
//
// Both arms run the same cheap 48-cell grid across 4 worker processes with
// CCD_SWEEP_TEST_RUN_DELAY_MS making every run cost ~75 ms -- except worker
// 0, which gets a 4x delay (300 ms/run).  The static arm carves the grid
// into the 4 balanced cell ranges `--emit-shards 4` writes, one spec file
// per worker, so its wall-clock is the slow worker's whole shard; the
// dynamic arm feeds the same grid through run_dispatch, whose
// stale-heartbeat steal re-queues the slow worker's unfinished cells to
// the idle fast workers.
//
// Emits a ccd-bench-v1 "dispatch_steal" object (BENCH_dispatch.json) whose
// gated metric is speedup = static_wall / dynamic_wall; CI diffs it against
// bench/baselines/BENCH_dispatch.json and also asserts speedup >= 1.5.
// Both arms' merged reports are cross-checked byte-identical (and the
// bench hard-fails if not), so the speedup is never bought with a report
// difference.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;

constexpr std::size_t kWorkers = 4;
constexpr std::uint64_t kBaseDelayMs = 75;
constexpr std::uint64_t kSlowFactor = 4;
constexpr double kStaleAfterSecs = 0.15;

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_dispatch_bench [options]

Benchmark dynamic work stealing (ccd_dispatch machinery) against a static
--emit-shards 4 partition on a skewed 4-worker fleet (worker 0 runs 4x
slower via CCD_SWEEP_TEST_RUN_DELAY_MS).  Writes a ccd-bench-v1
"dispatch_steal" JSON with the gated dynamic-vs-static speedup.

options:
  --out PATH        bench JSON path (default BENCH_dispatch.json)
  --work-dir PATH   scratch dir for specs/reports (default
                    ccd-dispatch-bench-work; created, cleaned afterwards)
  --worker-bin PATH ccd_sweep binary (default: next to this binary)
  --quiet           suppress progress chatter
)");
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "ccd_dispatch_bench: cannot write %s\n",
                 path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

std::string default_worker_bin() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (len <= 0) return "ccd_sweep";
  buffer[len] = '\0';
  std::string self(buffer);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "ccd_sweep";
  return self.substr(0, slash) + "/ccd_sweep";
}

/// The bench grid: the smoke product widened along the (cheap) CST axis to
/// 48 cells of a few-process consensus each, one seed per cell.  Real cell
/// cost is microseconds; the injected per-run delay dominates, so the skew
/// is controlled and the bench is stable across machines.
SweepGrid bench_grid() {
  SweepGrid grid = *SweepGrid::named("smoke");
  grid.csts = {5, 6, 7, 8, 9, 10, 11, 12};
  grid.seeds_per_cell = 1;
  return grid;
}

std::string delay_env(std::size_t slot) {
  const std::uint64_t ms =
      slot == 0 ? kBaseDelayMs * kSlowFactor : kBaseDelayMs;
  return "CCD_SWEEP_TEST_RUN_DELAY_MS=" + std::to_string(ms);
}

struct ArmResult {
  std::uint64_t wall_ns = 0;
  std::string json, csv, dist;
};

/// Static arm: K planned shard workers, launched together, wall-clock =
/// last exit.  This is exactly the `ccd_sweep --emit-shards K` +
/// `--shard-file` + `ccd_merge` workflow the dispatcher replaces.
bool run_static_arm(const SweepGrid& grid, const std::string& work_dir,
                    const std::string& worker_bin, ArmResult* out,
                    std::string* error) {
  const std::vector<ShardSpec> shards = ShardPlanner::plan(grid, kWorkers);
  LocalProcessTransport transport;
  std::vector<int> handles;
  std::vector<std::string> report_paths;
  obs::RunTimer timer;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string base = work_dir + "/static-" + std::to_string(i);
    const std::string spec_path = base + ".spec.json";
    report_paths.push_back(base + ".report.json");
    if (!write_file(spec_path, shards[i].to_json() + "\n")) {
      *error = "cannot write " + spec_path;
      return false;
    }
    const std::vector<std::string> argv = {
        worker_bin,          "--shard-file", spec_path, "--json",
        report_paths.back(), "--threads",    "1",       "--quiet"};
    const std::vector<std::string> env = {delay_env(i)};
    const int handle = transport.spawn(argv, env);
    if (handle < 0) {
      *error = "cannot spawn static worker " + std::to_string(i);
      return false;
    }
    handles.push_back(handle);
  }
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const WorkerStatus status = transport.poll(handles[i]);
      if (status.running) {
        all_done = false;
      } else if (status.exit_code != 0) {
        *error = "static worker " + std::to_string(i) + " exited " +
                 std::to_string(status.exit_code);
        return false;
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  out->wall_ns = timer.elapsed_ns();

  std::vector<ShardReport> reports;
  for (const std::string& path : report_paths) {
    std::string text;
    if (!read_file(path, text)) {
      *error = "cannot read " + path;
      return false;
    }
    auto report = ShardReport::from_json(text, error);
    if (!report) return false;
    reports.push_back(std::move(*report));
  }
  auto merged = merge_shard_reports(reports, error);
  if (!merged) return false;
  out->json = aggregates_to_json(merged->grid, merged->cells);
  out->csv = aggregates_to_csv(merged->cells);
  out->dist = cells_to_dist_json(merged->grid, merged->cells);
  return true;
}

bool run_dynamic_arm(const SweepGrid& grid, const std::string& work_dir,
                     const std::string& worker_bin, ArmResult* out,
                     obs::PerfDispatch* stats, std::string* error) {
  DispatchOptions options;
  options.workers = kWorkers;
  options.stale_after_secs = kStaleAfterSecs;
  options.poll_ms = 20;
  options.work_dir = work_dir;
  options.worker_bin = worker_bin;
  options.worker_args = {"--threads", "1"};
  for (std::size_t i = 0; i < kWorkers; ++i) {
    options.worker_env.push_back({delay_env(i)});
  }
  auto result = run_dispatch(grid, options, error);
  if (!result) return false;
  out->wall_ns = result->stats.wall_ns;
  out->json = aggregates_to_json(result->merged.grid, result->merged.cells);
  out->csv = aggregates_to_csv(result->merged.cells);
  out->dist = cells_to_dist_json(result->merged.grid, result->merged.cells);
  *stats = result->stats;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dispatch.json";
  std::string work_dir = "ccd-dispatch-bench-work";
  std::string worker_bin;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_dispatch_bench: %s needs a value\n",
                     flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return 2;
      out_path = v;
    } else if (flag == "--work-dir") {
      const char* v = next();
      if (!v) return 2;
      work_dir = v;
    } else if (flag == "--worker-bin") {
      const char* v = next();
      if (!v) return 2;
      worker_bin = v;
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "ccd_dispatch_bench: unknown flag '%s'\n",
                   flag.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (worker_bin.empty()) worker_bin = default_worker_bin();
  if (::mkdir(work_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "ccd_dispatch_bench: cannot create work dir %s\n",
                 work_dir.c_str());
    return 2;
  }

  const SweepGrid grid = bench_grid();
  if (!quiet) {
    std::fprintf(stderr,
                 "ccd_dispatch_bench: %zu cells, %zu workers, %llu ms/run "
                 "(worker 0: %llux)\n",
                 grid.num_cells(), kWorkers,
                 static_cast<unsigned long long>(kBaseDelayMs),
                 static_cast<unsigned long long>(kSlowFactor));
  }

  std::string error;
  ArmResult stat_arm;
  if (!run_static_arm(grid, work_dir, worker_bin, &stat_arm, &error)) {
    std::fprintf(stderr, "ccd_dispatch_bench: static arm: %s\n",
                 error.c_str());
    return 2;
  }
  if (!quiet) {
    std::fprintf(stderr, "ccd_dispatch_bench: static  %.2fs\n",
                 static_cast<double>(stat_arm.wall_ns) * 1e-9);
  }
  ArmResult dyn_arm;
  obs::PerfDispatch stats;
  if (!run_dynamic_arm(grid, work_dir, worker_bin, &dyn_arm, &stats,
                       &error)) {
    std::fprintf(stderr, "ccd_dispatch_bench: dynamic arm: %s\n",
                 error.c_str());
    return 2;
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "ccd_dispatch_bench: dynamic %.2fs  (steals=%llu "
                 "requeues=%llu duplicates=%llu)\n",
                 static_cast<double>(dyn_arm.wall_ns) * 1e-9,
                 static_cast<unsigned long long>(stats.steals),
                 static_cast<unsigned long long>(stats.requeues),
                 static_cast<unsigned long long>(stats.duplicate_cells));
  }

  // The speedup must never be bought with a report difference.
  if (stat_arm.json != dyn_arm.json || stat_arm.csv != dyn_arm.csv ||
      stat_arm.dist != dyn_arm.dist) {
    std::fprintf(stderr,
                 "ccd_dispatch_bench: dynamic and static merged reports "
                 "DIFFER -- determinism bug\n");
    return 2;
  }

  const double speedup =
      dyn_arm.wall_ns > 0
          ? static_cast<double>(stat_arm.wall_ns) /
                static_cast<double>(dyn_arm.wall_ns)
          : 0.0;
  char buffer[64];
  std::string json = "{\"format\":\"ccd-bench-v1\"";
  json += ",\"bench\":\"dispatch_steal\"";
  json += ",\"grid\":\"smoke-cst8\"";
  json += ",\"cells\":" + std::to_string(grid.num_cells());
  json += ",\"workers\":" + std::to_string(kWorkers);
  json += ",\"slow_factor\":" + std::to_string(kSlowFactor);
  json += ",\"static_wall_ns\":" + std::to_string(stat_arm.wall_ns);
  json += ",\"dynamic_wall_ns\":" + std::to_string(dyn_arm.wall_ns);
  std::snprintf(buffer, sizeof buffer, ",\"speedup\":%.3f", speedup);
  json += buffer;
  json += ",\"steals\":" + std::to_string(stats.steals);
  json += ",\"requeues\":" + std::to_string(stats.requeues);
  json += ",\"duplicate_cells\":" + std::to_string(stats.duplicate_cells);
  json += ",\"reports_identical\":true}\n";
  if (!write_file(out_path, json)) return 1;

  // Sweep both arms' scratch files out of the work dir.
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const std::string base = work_dir + "/static-" + std::to_string(i);
    std::remove((base + ".spec.json").c_str());
    std::remove((base + ".report.json").c_str());
  }
  for (std::uint64_t id = 0; id < stats.batches; ++id) {
    const std::string base = work_dir + "/batch-" + std::to_string(id);
    std::remove((base + ".spec.json").c_str());
    std::remove((base + ".report.json").c_str());
    std::remove((base + ".ckpt.jsonl").c_str());
    std::remove((base + ".perf.json").c_str());
  }

  if (!quiet) {
    std::fprintf(stderr, "ccd_dispatch_bench: speedup %.2fx -> %s\n",
                 speedup, out_path.c_str());
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "ccd_dispatch_bench: FAIL: speedup %.2fx below the 1.5x "
                 "floor\n",
                 speedup);
    return 1;
  }
  return 0;
}
