// ccd_sweep: the sweep CLI of the exp/ orchestration engine.
//
// Runs a named grid (see SweepGrid::named) or an ad-hoc grid assembled
// from axis flags and emits per-cell aggregate statistics as an ASCII
// summary, JSON, CSV and/or full distributions.  A grid result comes from
// one of three sources, and all three feed one output stage:
//
//   (default)        run_sweep: every cell x seed on an in-process pool
//   --workers N      run_dispatch: a dynamic cell queue over N ccd_sweep
//                    worker processes (heartbeat steal, crash harvest)
//   --merge FILE...  merge_shard_reports over shard reports, plus any perf
//                    sidecars among the inputs
//
// The three write the same bytes: aggregates are a pure function of
// (grid, grid seed), whatever thread count, fleet or shard split produced
// them.  Two more modes serve sharding by hand: --emit-shards K writes
// shard spec files and --shard-file SPEC runs one as a worker.
//
// Examples:
//   ccd_sweep --grid default --threads 8 --json report.json
//   ccd_sweep --algs alg1,alg2 --detectors maj-oac,zero-oac --csts 5,20
//             --n 4,16 --seeds 10 --csv sweep.csv
//   ccd_sweep --workloads flood --topologies rgg --densities 2,3,4
//             --n 16,32,64 --seeds 5
//   ccd_sweep --grid multihop --faults scheduled
//             --crash-schedules leaf-then-die,source-dies
//   ccd_sweep --grid multihop --workers 4 --threads 1 --json mh.json
//
// Sharding by hand:
//   ccd_sweep --grid multihop --emit-shards 4 --shard-out shards/mh
//   ccd_sweep --shard-file shards/mh-0-of-4.json --json part-0.json
//   ccd_sweep --merge --json merged.json part-*.json
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/trace_capture.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/telemetry.hpp"
#include "util/flat_json.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;
namespace fs = std::filesystem;

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_sweep [options]
       ccd_sweep --merge [options] FILE...

grid selection:
  --grid NAME          named grid (--list-grids); default "default"
  --list-grids         print the named grids and exit

axis overrides (comma-separated; replace the named grid's axis):
  --algs LIST          alg1,alg2,alg3,alg4,naive
  --detectors LIST     ac,maj-ac,half-ac,zero-ac,oac,maj-oac,half-oac,
                       zero-oac,nocd,noacc
  --policies LIST      truthful,prefer-null,prefer-collision,spurious,
                       flaky-majority,random-legal
  --cms LIST           nocm,wakeup,leader,backoff
  --losses LIST        noloss,ecf,prob,unrestricted
  --faults LIST        none,random-crash,scheduled
  --crash-schedules L  named crash-schedule generators for fault=scheduled
                       cells: leaf-then-die,source-dies,articulation-point
  --n LIST             process counts, e.g. 4,8,16
  --values LIST        |V| per cell, e.g. 16,256
  --csts LIST          CST targets, e.g. 5,20
  --topologies LIST    singlehop,line,ring,grid,rgg
  --workloads LIST     consensus,flood,mis,mis-then-consensus
  --densities LIST     rgg density factors (1.0 = connectivity threshold;
                       floor 2.0), e.g. 2,3; inert for other topologies

scalar knobs:
  --seeds N            seeds per cell (default: grid's)
  --grid-seed S        master seed (default: grid's)
  --chaos calm|chaotic pre-CST environment flavour
  --init random|split|same
  --p-deliver P        delivery probability knob in [0, 1] (round-sync:
                       beacon delivery, loss = 1 - P)
  --max-rounds N       per-run round cap (0 = auto)
  --sync-rho R         round-sync: max clock rate deviation (default 1e-4)
  --sync-round-length L  round-sync: round length in seconds (default 0.05)

trace capture:
  --rerun-cell N       re-execute every run of report cell N of the
                       assembled grid, single-threaded, with full
                       ExecutionLogs (rounds and views), and dump the
                       traces as JSON (--json PATH, else stdout)

execution and output:
  --threads N          worker threads (0 = hardware concurrency; default 0)
  --no-lanes           run every run alone on a one-lane engine instead of
                       batching up to 64 seeds of a cell per engine
                       (reports are byte-identical either way; this is
                       purely a throughput switch)
  --json PATH          write aggregate JSON report
  --csv PATH           write per-cell CSV
  --dist-out PATH      write full per-cell distributions (ccd-dist-v1);
                       inspect with ccd_report show/diff
  --quiet              suppress the ASCII summary and the live progress line

observability (never changes report bytes; reports are byte-identical
with or without these):
  --perf-out PATH      write a perf sidecar JSON: per-cell run-time
                       percentiles, engine counter totals, per-worker
                       utilization and queue-drain time
  --trace-out PATH     write a Chrome trace-event JSON of per-run worker
                       spans (open in chrome://tracing or ui.perfetto.dev)

modes (at most one; without any, the grid runs in this process):
  --workers N          run the grid on N ccd_sweep worker processes that
                       pull cell batches from a dynamic queue; a batch
                       without a checkpoint heartbeat for 30 s is stolen,
                       a crashed one re-queued.  --threads passes through
                       to every worker.  Batch files live in a private
                       directory under $TMPDIR, removed on success and
                       named in the error on failure
  --worker-bin PATH    (--workers) worker binary (default: this ccd_sweep)
  --ledger-out PATH    (--workers) write the cell -> winning-batch ledger
                       (ccd-dispatch-ledger-v1)
  --merge              every non-flag argument is an input file, classified
                       by its "format": ccd-shard-report-v2 files (the
                       --shard-file outputs) must cover one grid exactly
                       once; ccd-perf-sidecar-v1 files of the same grid
                       merge into --perf-out
  --emit-shards K      write K self-contained shard spec files, spec i
                       owning cells [i*N/K, (i+1)*N/K), and exit
  --shard-out PREFIX   (--emit-shards) spec file prefix (default "shard");
                       files are PREFIX-<i>-of-<K>.json
  --shard-file PATH    worker mode: run the cells a spec file owns; --json
                       (required) writes a PARTIAL shard report
  --checkpoint PATH    (--shard-file) append a per-cell completion marker
                       to PATH as each cell finishes

Grid and axis flags apply to the run, --workers and --emit-shards modes;
--json, --csv, --dist-out and --perf-out to run, --workers and --merge
(--json, --dist-out and --perf-out also to --shard-file); --trace-out and
--rerun-cell to the run mode only; --threads to run, --workers and
--shard-file; --no-lanes to run and --shard-file.  Any other combination
exits 2.
)");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

template <typename T, typename ParseFn>
bool parse_list(const std::string& arg, const char* what, ParseFn parse,
                std::vector<T>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    auto v = parse(tok);
    if (!v) {
      std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what,
                   tok.c_str());
      return false;
    }
    out.push_back(*v);
  }
  return true;
}

template <typename T>
bool parse_uint_list(const std::string& arg, const char* what,
                     std::vector<T>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    const auto v = jsonu::parse_u64(tok, std::numeric_limits<T>::max());
    if (!v) {
      std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what,
                   tok.c_str());
      return false;
    }
    out.push_back(static_cast<T>(*v));
  }
  return true;
}

bool parse_double_list(const std::string& arg, const char* what,
                       std::vector<double>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    const auto v = jsonu::parse_double(tok);
    if (!v) {
      std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what,
                   tok.c_str());
      return false;
    }
    out.push_back(*v);
  }
  return true;
}

bool parse_u64_flag(const char* arg, const char* what, std::uint64_t& out) {
  const auto v = jsonu::parse_u64(arg);
  if (!v) {
    std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what, arg);
    return false;
  }
  out = *v;
  return true;
}

bool parse_double_flag(const char* arg, const char* what, double& out) {
  const auto v = jsonu::parse_double(arg);
  if (!v) {
    std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what, arg);
    return false;
  }
  out = *v;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "ccd_sweep: cannot write %s\n", path.c_str());
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

/// Throttled live progress line on stderr.  Workers call operator() after
/// every run; a lock-free time gate (CAS on the last-print stamp) lets at
/// most one thread through per window, so the hot path costs one relaxed
/// load per run and there is no convoy on a mutex or on stderr.  On a tty
/// the line redraws in place at <= 5 Hz; piped stderr gets a plain line
/// every ~2 s instead.
class ProgressPrinter {
 public:
  ProgressPrinter() : tty_(isatty(fileno(stderr)) != 0) {}

  void operator()(std::size_t done, std::size_t total) {
    total_.store(total, std::memory_order_relaxed);
    const std::uint64_t now = timer_.elapsed_ns();
    const std::uint64_t interval =
        tty_ ? 200'000'000ull : 2'000'000'000ull;  // 5 Hz / 0.5 Hz
    std::uint64_t last = last_print_ns_.load(std::memory_order_relaxed);
    if (now - last < interval) return;
    if (!last_print_ns_.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed)) {
      return;  // another worker owns this window
    }
    print(done, total, now);
  }

  /// Final 100% line from the main thread once the pool has joined (the
  /// throttle may have swallowed the last per-run update).  No-op if the
  /// pool never reported (e.g. a shard with nothing to run).
  void finish() {
    const std::size_t total = total_.load(std::memory_order_relaxed);
    if (total == 0) return;
    print(total, total, timer_.elapsed_ns());
    if (tty_) std::fputc('\n', stderr);
  }

 private:
  void print(std::size_t done, std::size_t total, std::uint64_t now_ns) {
    const double secs = static_cast<double>(now_ns) * 1e-9;
    const double rate = secs > 0 ? static_cast<double>(done) / secs : 0.0;
    const double eta =
        (rate > 0 && done < total)
            ? static_cast<double>(total - done) / rate
            : 0.0;
    std::fprintf(stderr, "%sccd_sweep: %zu/%zu runs  %.1f runs/s  eta %.0fs%s",
                 tty_ ? "\r" : "", done, total, rate, eta, tty_ ? "" : "\n");
    if (tty_) std::fflush(stderr);
  }

  ccd::obs::RunTimer timer_;
  std::atomic<std::uint64_t> last_print_ns_{0};
  std::atomic<std::size_t> total_{0};
  bool tty_;
};

// ---- modes -----------------------------------------------------------------

/// The one decision every invocation makes first: where its result comes
/// from.  A mode flag selects its mode; kFlagModes says which modes accept
/// each flag, so a flag outside its rows is refused with one message
/// instead of a web of pairwise conflict checks.
enum Mode : unsigned { kRun, kWorkers, kMerge, kEmitShards, kShardWorker };
constexpr const char* kModeNames[] = {"run", "--workers", "--merge",
                                      "--emit-shards", "--shard-file"};
constexpr unsigned bit(Mode m) { return 1u << m; }
constexpr unsigned kGridModes = bit(kRun) | bit(kWorkers) | bit(kEmitShards);
constexpr unsigned kResultModes = bit(kRun) | bit(kWorkers) | bit(kMerge);

const char* const kGridFlags[] = {
    "--grid",      "--algs",      "--detectors",  "--policies",
    "--cms",       "--losses",    "--faults",     "--crash-schedules",
    "--n",         "--values",    "--csts",       "--topologies",
    "--workloads", "--densities", "--seeds",      "--grid-seed",
    "--chaos",     "--init",      "--p-deliver",  "--max-rounds",
    "--sync-rho",  "--sync-round-length"};

struct FlagModes {
  const char* flag;
  unsigned modes;
};
constexpr FlagModes kFlagModes[] = {
    {"--threads", bit(kRun) | bit(kWorkers) | bit(kShardWorker)},
    {"--no-lanes", bit(kRun) | bit(kShardWorker)},
    {"--json", kResultModes | bit(kShardWorker)},
    {"--csv", kResultModes},
    {"--dist-out", kResultModes | bit(kShardWorker)},
    {"--perf-out", kResultModes | bit(kShardWorker)},
    {"--quiet", kResultModes | bit(kEmitShards) | bit(kShardWorker)},
    {"--trace-out", bit(kRun)},
    {"--rerun-cell", bit(kRun)},
    {"--workers", bit(kWorkers)},
    {"--worker-bin", bit(kWorkers)},
    {"--ledger-out", bit(kWorkers)},
    {"--merge", bit(kMerge)},
    {"--emit-shards", bit(kEmitShards)},
    {"--shard-out", bit(kEmitShards)},
    {"--shard-file", bit(kShardWorker)},
    {"--checkpoint", bit(kShardWorker)},
};

/// The flags that pick a mode.  The first one given wins; a second one
/// then fails the mode check like any other flag outside its mode.
constexpr std::pair<const char*, Mode> kModeFlags[] = {
    {"--workers", kWorkers},
    {"--merge", kMerge},
    {"--emit-shards", kEmitShards},
    {"--shard-file", kShardWorker}};

Mode select_mode(const std::vector<std::string>& flags) {
  for (const std::string& flag : flags) {
    for (const auto& [name, mode] : kModeFlags) {
      if (flag == name) return mode;
    }
  }
  return kRun;
}

unsigned modes_accepting(const std::string& flag) {
  for (const char* g : kGridFlags) {
    if (flag == g) return kGridModes;
  }
  for (const FlagModes& entry : kFlagModes) {
    if (flag == entry.flag) return entry.modes;
  }
  return 0;
}

struct Cli {
  Mode mode = kRun;             ///< select_mode(flags)
  std::vector<std::string> flags;   ///< every flag given, for the mode check
  std::vector<std::string> inputs;  ///< non-flag arguments (--merge inputs)
  std::string json_path, csv_path, dist_path, perf_path, trace_path;
  unsigned threads = 0;
  bool lanes = true;
  bool quiet = false;
  std::optional<std::size_t> rerun_cell;
  std::size_t workers = 0;
  std::string worker_bin, ledger_path;
  std::size_t emit_shards = 0;
  std::string shard_out = "shard";
  std::string shard_file, checkpoint_path;
};

/// Flags whose value is stored verbatim.
constexpr std::pair<const char*, std::string Cli::*> kTextFlags[] = {
    {"--json", &Cli::json_path},
    {"--csv", &Cli::csv_path},
    {"--dist-out", &Cli::dist_path},
    {"--perf-out", &Cli::perf_path},
    {"--trace-out", &Cli::trace_path},
    {"--worker-bin", &Cli::worker_bin},
    {"--ledger-out", &Cli::ledger_path},
    {"--shard-out", &Cli::shard_out},
    {"--shard-file", &Cli::shard_file},
    {"--checkpoint", &Cli::checkpoint_path}};

/// A full-grid result plus its observation artifacts, whichever source
/// produced it.
struct Outcome {
  MergeResult result;
  std::optional<obs::PerfSidecar> perf;
  std::string trace_json;
};

// ---- the three result sources ----------------------------------------------

Outcome run_in_process(const Cli& cli, const SweepGrid& grid) {
  SweepOptions options;
  options.threads = cli.threads;
  options.lanes = cli.lanes;
  obs::SweepPerf perf;
  if (!cli.perf_path.empty() || !cli.trace_path.empty()) {
    options.perf = &perf;
  }
  ProgressPrinter progress;
  if (!cli.quiet) {
    options.progress = [&progress](std::size_t done, std::size_t total) {
      progress(done, total);
    };
    std::fprintf(stderr, "ccd_sweep: %zu cells x %u seeds = %zu runs\n",
                 grid.num_cells(), grid.seeds_per_cell, grid.num_runs());
  }
  const std::vector<RunRecord> records = run_sweep(grid, options);
  if (!cli.quiet) progress.finish();

  Outcome out;
  out.result.grid = grid;
  out.result.cells = aggregate(grid, records);
  if (!cli.perf_path.empty()) {
    // Memory-wall metric: what the aggregator's Stats actually retain for
    // this grid (histogram bins, not raw samples).
    perf.stats_bytes_retained = exp::stats_bytes_retained(out.result.cells);
    out.perf = obs::build_perf_sidecar(grid.fingerprint(), 0, 1, perf);
  }
  if (!cli.trace_path.empty()) {
    out.trace_json = obs::sweep_trace_json(perf, 0, grid.seeds_per_cell);
  }
  return out;
}

/// 0 with *out filled, else the exit code (an error is already printed).
int run_on_workers(const Cli& cli, const SweepGrid& grid, Outcome* out) {
  std::error_code ec;
  const fs::path tmp = fs::temp_directory_path(ec);
  std::string work_dir = (tmp / "ccd-sweep-XXXXXX").string();
  if (ec || !::mkdtemp(work_dir.data())) {
    std::fprintf(stderr,
                 "ccd_sweep: cannot create a batch directory under the "
                 "system temp dir (TMPDIR)\n");
    return 2;
  }
  DispatchOptions options;
  options.workers = cli.workers;
  options.work_dir = work_dir;
  options.worker_bin = cli.worker_bin.empty()
                           ? fs::read_symlink("/proc/self/exe", ec).string()
                           : cli.worker_bin;
  options.worker_args = {"--threads", std::to_string(cli.threads)};
  options.worker_perf = !cli.perf_path.empty();
  ProgressPrinter progress;
  if (!cli.quiet) {
    options.progress = [&progress](std::size_t done, std::size_t total) {
      progress(done, total);
    };
    std::fprintf(stderr,
                 "ccd_sweep: %zu cells x %u seeds = %zu runs across %zu "
                 "workers\n",
                 grid.num_cells(), grid.seeds_per_cell, grid.num_runs(),
                 cli.workers);
  }

  std::string error;
  auto result = run_dispatch(grid, options, &error);
  if (!cli.quiet) progress.finish();
  if (!result) {
    std::fprintf(stderr, "ccd_sweep: %s (batch files kept in %s)\n",
                 error.c_str(), work_dir.c_str());
    return 2;
  }
  fs::remove_all(work_dir, ec);

  const obs::PerfDispatch& stats = result->stats;
  if (!cli.quiet) {
    std::fprintf(stderr,
                 "ccd_sweep: %zu cells in %llu batches  steals=%llu "
                 "requeues=%llu restarts=%llu duplicates=%llu  wall %.1fs\n",
                 result->merged.cells.size(),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.steals),
                 static_cast<unsigned long long>(stats.requeues),
                 static_cast<unsigned long long>(stats.worker_restarts),
                 static_cast<unsigned long long>(stats.duplicate_cells),
                 static_cast<double>(stats.wall_ns) * 1e-9);
  }
  if (!cli.ledger_path.empty() &&
      !write_file(cli.ledger_path, ledger_to_json(result->ledger) + "\n")) {
    return 1;
  }
  if (options.worker_perf && !result->perf) {
    // Observation only: every worker that won cells crashed before
    // writing a sidecar.  The report outputs are still exact.
    std::fprintf(stderr,
                 "ccd_sweep: no worker perf sidecars survived; skipping %s\n",
                 cli.perf_path.c_str());
  }
  out->result = std::move(result->merged);
  out->perf = std::move(result->perf);
  return 0;
}

/// 0 with *out filled, else the exit code (an error is already printed).
int merge_inputs(const Cli& cli, Outcome* out) {
  std::vector<ShardReport> reports;
  std::vector<obs::PerfSidecar> sidecars;
  for (const std::string& path : cli.inputs) {
    std::string text, error;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "ccd_sweep: cannot read %s\n", path.c_str());
      return 2;
    }
    const auto json = jsonu::FlatJson::parse(text);
    const auto format = json ? json->find("format") : std::nullopt;
    if (!format) {
      error = "missing key 'format'";
    } else if (*format == "ccd-shard-report-v2") {
      if (auto report = ShardReport::from_json(text, &error)) {
        reports.push_back(std::move(*report));
        continue;
      }
    } else if (*format == "ccd-perf-sidecar-v1") {
      if (auto sidecar = obs::PerfSidecar::from_json(text, &error)) {
        sidecars.push_back(std::move(*sidecar));
        continue;
      }
    } else {
      error = "format '" + std::string(*format) +
              "' is neither ccd-shard-report-v2 nor ccd-perf-sidecar-v1";
    }
    std::fprintf(stderr, "ccd_sweep: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (reports.empty()) {
    std::fprintf(stderr,
                 "ccd_sweep: --merge needs at least one ccd-shard-report-v2 "
                 "input\n");
    return 2;
  }
  if (!cli.perf_path.empty() && sidecars.empty()) {
    std::fprintf(stderr,
                 "ccd_sweep: --perf-out with --merge needs "
                 "ccd-perf-sidecar-v1 inputs\n");
    return 2;
  }

  std::string error;
  auto merged = merge_shard_reports(reports, &error);
  if (!merged) {
    std::fprintf(stderr, "ccd_sweep: %s\n", error.c_str());
    return 2;
  }
  if (!sidecars.empty()) {
    out->perf = obs::merge_perf_sidecars(sidecars, &error);
    if (!out->perf) {
      std::fprintf(stderr, "ccd_sweep: %s\n", error.c_str());
      return 2;
    }
    if (out->perf->grid_fingerprint != merged->grid.fingerprint()) {
      std::fprintf(stderr,
                   "ccd_sweep: perf sidecars describe a different grid than "
                   "the shard reports (fingerprint mismatch)\n");
      return 2;
    }
  }
  if (!cli.quiet) {
    std::fprintf(stderr,
                 "ccd_sweep: merged %zu shard reports and %zu perf sidecars "
                 "-> %zu cells\n",
                 reports.size(), sidecars.size(), merged->cells.size());
  }
  out->result = std::move(*merged);
  return 0;
}

/// The one output stage every result source feeds.
int write_outputs(const Cli& cli, const Outcome& out) {
  const MergeResult& r = out.result;
  if (!cli.quiet) print_summary(std::cout, r.grid, r.cells);
  if (!cli.json_path.empty() &&
      !write_file(cli.json_path, aggregates_to_json(r.grid, r.cells))) {
    return 1;
  }
  if (!cli.csv_path.empty() &&
      !write_file(cli.csv_path, aggregates_to_csv(r.cells))) {
    return 1;
  }
  if (!cli.dist_path.empty() &&
      !write_file(cli.dist_path, cells_to_dist_json(r.grid, r.cells) + "\n")) {
    return 1;
  }
  // Observation artifacts last: the report writes above are bytewise
  // independent of everything below.
  if (!cli.perf_path.empty() && out.perf &&
      !write_file(cli.perf_path, out.perf->to_json() + "\n")) {
    return 1;
  }
  if (!cli.trace_path.empty() &&
      !write_file(cli.trace_path, out.trace_json + "\n")) {
    return 1;
  }
  return 0;
}

// ---- the modes that produce no full-grid result ----------------------------

int rerun(const Cli& cli, const SweepGrid& grid) {
  const std::size_t cell = *cli.rerun_cell;
  if (cell >= grid.num_cells()) {
    std::fprintf(stderr,
                 "ccd_sweep: --rerun-cell %zu out of range (grid has %zu "
                 "cells)\n",
                 cell, grid.num_cells());
    return 2;
  }
  if (!cli.csv_path.empty() || !cli.dist_path.empty() ||
      !cli.perf_path.empty() || !cli.trace_path.empty()) {
    std::fprintf(stderr,
                 "ccd_sweep: --rerun-cell writes one JSON trace dump; "
                 "--csv, --dist-out, --perf-out and --trace-out do not "
                 "apply\n");
    return 2;
  }
  const std::vector<TracedRun> runs = rerun_cell(grid, cell);
  const std::string dump = traced_runs_to_json(grid, cell, runs) + "\n";
  if (!cli.json_path.empty()) {
    if (!write_file(cli.json_path, dump)) return 1;
  } else {
    std::fwrite(dump.data(), 1, dump.size(), stdout);
  }
  if (!cli.quiet) {
    std::fprintf(stderr,
                 "ccd_sweep: traced cell %zu (%u runs, full views)%s%s\n",
                 cell, grid.seeds_per_cell,
                 cli.json_path.empty() ? "" : " -> ",
                 cli.json_path.empty() ? "" : cli.json_path.c_str());
  }
  return 0;
}

int emit_shards(const Cli& cli, const SweepGrid& grid) {
  for (const ShardSpec& spec : ShardPlanner::plan(grid, cli.emit_shards)) {
    const std::string path = cli.shard_out + "-" +
                             std::to_string(spec.shard_index) + "-of-" +
                             std::to_string(spec.shard_count) + ".json";
    if (!write_file(path, spec.to_json() + "\n")) return 1;
    if (!cli.quiet) {
      std::fprintf(stderr, "ccd_sweep: wrote %s (%zu cells)\n", path.c_str(),
                   spec.cells.size());
    }
  }
  return 0;
}

int run_shard_worker(const Cli& cli) {
  std::string text;
  if (!read_file(cli.shard_file, text)) {
    std::fprintf(stderr, "ccd_sweep: cannot read %s\n",
                 cli.shard_file.c_str());
    return 2;
  }
  std::string error;
  auto parsed = ShardSpec::from_json(text, &error);
  if (!parsed) {
    std::fprintf(stderr, "ccd_sweep: %s: %s\n", cli.shard_file.c_str(),
                 error.c_str());
    return 2;
  }
  const ShardSpec spec = std::move(*parsed);
  if (auto problem = spec.grid.validate()) {
    std::fprintf(stderr, "ccd_sweep: %s: %s\n", cli.shard_file.c_str(),
                 problem->c_str());
    return 2;
  }
  if (cli.json_path.empty()) {
    std::fprintf(stderr,
                 "ccd_sweep: worker mode emits a partial shard report; "
                 "--json PATH is required\n");
    return 2;
  }
  ShardRunOptions shard_options;
  shard_options.sweep.threads = cli.threads;
  shard_options.sweep.lanes = cli.lanes;
  shard_options.checkpoint_path = cli.checkpoint_path;
  obs::SweepPerf perf;
  if (!cli.perf_path.empty()) shard_options.sweep.perf = &perf;
  ProgressPrinter progress;
  if (!cli.quiet) {
    shard_options.sweep.progress = [&progress](std::size_t done,
                                               std::size_t total) {
      progress(done, total);
    };
    std::fprintf(stderr,
                 "ccd_sweep: shard %zu/%zu: %zu of %zu cells x %u seeds\n",
                 spec.shard_index, spec.shard_count, spec.cells.size(),
                 spec.grid.num_cells(), spec.grid.seeds_per_cell);
  }
  // Test/bench-only throttle: CCD_SWEEP_TEST_RUN_DELAY_MS sleeps after
  // every completed run, simulating slow hardware without touching a
  // byte of the report (on_record is pure observation).  The dispatcher's
  // tests and ccd_bench use it to fabricate slow/stalling workers
  // deterministically.
  if (const char* delay_env = std::getenv("CCD_SWEEP_TEST_RUN_DELAY_MS")) {
    std::uint64_t delay_ms = 0;
    if (parse_u64_flag(delay_env, "CCD_SWEEP_TEST_RUN_DELAY_MS", delay_ms) &&
        delay_ms > 0) {
      shard_options.sweep.on_record = [delay_ms](const RunRecord&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      };
    }
  }
  auto report = run_shard(spec, shard_options, &error);
  if (!cli.quiet) progress.finish();
  if (!report) {
    std::fprintf(stderr, "ccd_sweep: %s\n", error.c_str());
    return 2;
  }
  if (!write_file(cli.json_path, report->to_json())) return 1;
  if (!cli.dist_path.empty() &&
      !write_file(cli.dist_path,
                  cells_to_dist_json(spec.grid, report->cells) + "\n")) {
    return 1;
  }
  if (!cli.perf_path.empty()) {
    const obs::PerfSidecar sidecar = obs::build_perf_sidecar(
        spec.grid_fingerprint, spec.shard_index, spec.shard_count, perf);
    if (!write_file(cli.perf_path, sidecar.to_json() + "\n")) return 1;
  }
  if (!cli.quiet) {
    std::fprintf(stderr, "ccd_sweep: wrote shard report %s (%zu cells)\n",
                 cli.json_path.c_str(), report->cells.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name = "default";

  // First pass: find the grid so axis flags can override it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-grids") == 0) {
      for (const std::string& name : SweepGrid::grid_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid_name = argv[i + 1];
    }
  }

  auto maybe_grid = SweepGrid::named(grid_name);
  if (!maybe_grid) {
    std::fprintf(stderr, "ccd_sweep: unknown grid '%s' (--list-grids)\n",
                 grid_name.c_str());
    return 2;
  }
  SweepGrid grid = *maybe_grid;

  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.empty() || flag[0] != '-') {
      cli.inputs.push_back(flag);
      continue;
    }
    if (modes_accepting(flag) == 0) {
      std::fprintf(stderr, "ccd_sweep: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    cli.flags.push_back(flag);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_sweep: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    std::string Cli::*text = nullptr;
    for (const auto& [name, member] : kTextFlags) {
      if (flag == name) text = member;
    }
    bool ok = true;
    if (text) {
      const char* v = next();
      ok = v != nullptr;
      if (ok) cli.*text = v;
    } else if (flag == "--grid") {
      ok = next() != nullptr;  // consumed in the first pass
    } else if (flag == "--algs") {
      const char* v = next();
      ok = v && parse_list(v, "alg", parse_alg, grid.algs);
    } else if (flag == "--detectors") {
      const char* v = next();
      ok = v && parse_list(v, "detector", parse_detector, grid.detectors);
    } else if (flag == "--policies") {
      const char* v = next();
      ok = v && parse_list(v, "policy", parse_policy, grid.policies);
    } else if (flag == "--cms") {
      const char* v = next();
      ok = v && parse_list(v, "cm", parse_cm, grid.cms);
    } else if (flag == "--losses") {
      const char* v = next();
      ok = v && parse_list(v, "loss", parse_loss, grid.losses);
    } else if (flag == "--faults") {
      const char* v = next();
      ok = v && parse_list(v, "fault", parse_fault, grid.faults);
    } else if (flag == "--crash-schedules") {
      const char* v = next();
      ok = v != nullptr;
      // Names are validated by grid.validate() below, which knows the
      // generator registry.
      if (ok) grid.crash_schedules = split_csv(v);
    } else if (flag == "--n") {
      const char* v = next();
      ok = v && parse_uint_list(v, "n", grid.ns);
    } else if (flag == "--values") {
      const char* v = next();
      ok = v && parse_uint_list(v, "num_values", grid.value_spaces);
    } else if (flag == "--csts") {
      const char* v = next();
      ok = v && parse_uint_list(v, "cst", grid.csts);
    } else if (flag == "--topologies") {
      const char* v = next();
      ok = v && parse_list(v, "topology", parse_topology, grid.topologies);
    } else if (flag == "--workloads") {
      const char* v = next();
      ok = v && parse_list(v, "workload", parse_workload, grid.workloads);
    } else if (flag == "--densities") {
      const char* v = next();
      ok = v && parse_double_list(v, "density", grid.densities);
    } else if (flag == "--seeds") {
      const char* v = next();
      std::uint64_t seeds = 0;
      ok = v && parse_u64_flag(v, "seeds", seeds) && seeds <= ~0u;
      if (ok) grid.seeds_per_cell = static_cast<std::uint32_t>(seeds);
    } else if (flag == "--grid-seed") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "grid-seed", grid.grid_seed);
    } else if (flag == "--chaos") {
      const char* v = next();
      auto c = v ? parse_chaos(v) : std::nullopt;
      ok = c.has_value();
      if (ok) grid.base.chaos = *c;
    } else if (flag == "--init") {
      const char* v = next();
      auto c = v ? parse_init(v) : std::nullopt;
      ok = c.has_value();
      if (ok) grid.base.init = *c;
    } else if (flag == "--p-deliver") {
      const char* v = next();
      ok = v && parse_double_flag(v, "p-deliver", grid.base.p_deliver);
    } else if (flag == "--max-rounds") {
      const char* v = next();
      std::uint64_t rounds = 0;
      ok = v && parse_u64_flag(v, "max-rounds", rounds) &&
           rounds <= ccd::kNeverRound;
      if (ok) grid.base.max_rounds = static_cast<ccd::Round>(rounds);
    } else if (flag == "--sync-rho") {
      const char* v = next();
      ok = v && parse_double_flag(v, "sync-rho", grid.base.sync_rho);
    } else if (flag == "--sync-round-length") {
      const char* v = next();
      ok = v && parse_double_flag(v, "sync-round-length",
                                  grid.base.sync_round_length);
    } else if (flag == "--rerun-cell") {
      const char* v = next();
      std::uint64_t cell = 0;
      ok = v && parse_u64_flag(v, "rerun-cell", cell);
      if (ok) cli.rerun_cell = static_cast<std::size_t>(cell);
    } else if (flag == "--threads") {
      const char* v = next();
      std::uint64_t t = 0;
      ok = v && parse_u64_flag(v, "threads", t) && t <= 4096;
      if (ok) cli.threads = static_cast<unsigned>(t);
    } else if (flag == "--no-lanes") {
      cli.lanes = false;
    } else if (flag == "--quiet") {
      cli.quiet = true;
    } else if (flag == "--workers") {
      const char* v = next();
      std::uint64_t w = 0;
      ok = v && parse_u64_flag(v, "workers", w) && w >= 1 && w <= 1024;
      if (ok) cli.workers = static_cast<std::size_t>(w);
    } else if (flag == "--emit-shards") {
      const char* v = next();
      std::uint64_t k = 0;
      ok = v && parse_u64_flag(v, "emit-shards", k) && k >= 1 && k <= 65536;
      if (ok) cli.emit_shards = static_cast<std::size_t>(k);
    }
    if (!ok) return 2;
  }

  cli.mode = select_mode(cli.flags);
  for (const std::string& flag : cli.flags) {
    if ((modes_accepting(flag) & bit(cli.mode)) == 0) {
      std::fprintf(stderr, "ccd_sweep: %s does not apply in %s mode\n",
                   flag.c_str(), kModeNames[cli.mode]);
      return 2;
    }
  }
  if (cli.mode == kMerge) {
    if (cli.inputs.empty()) {
      std::fprintf(stderr, "ccd_sweep: --merge needs input files\n");
      return 2;
    }
  } else if (!cli.inputs.empty()) {
    std::fprintf(stderr,
                 "ccd_sweep: unexpected argument '%s' (input files need "
                 "--merge)\n",
                 cli.inputs.front().c_str());
    return 2;
  }
  if (bit(cli.mode) & kGridModes) {
    if (grid.seeds_per_cell == 0 || grid.num_cells() == 0) {
      std::fprintf(stderr, "ccd_sweep: empty grid\n");
      return 2;
    }
    if (auto problem = grid.validate()) {
      std::fprintf(stderr, "ccd_sweep: %s\n", problem->c_str());
      return 2;
    }
  }

  Outcome outcome;
  switch (cli.mode) {
    case kEmitShards:
      return emit_shards(cli, grid);
    case kShardWorker:
      return run_shard_worker(cli);
    case kRun:
      if (cli.rerun_cell) return rerun(cli, grid);
      outcome = run_in_process(cli, grid);
      break;
    case kWorkers:
      if (int status = run_on_workers(cli, grid, &outcome)) return status;
      break;
    case kMerge:
      if (int status = merge_inputs(cli, &outcome)) return status;
      break;
  }
  return write_outputs(cli, outcome);
}
