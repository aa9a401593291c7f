// ccd_bench: the one throughput benchmark tool.  Every measurement runs
// K times (K is fixed per family) and lands in one ccd-bench-v2 file: a
// list of entries {name, unit, median, min, max, reps[, bound]} that
// `ccd_report bench-diff bench/baselines/BENCH.json NEW` gates on the
// median.  Every entry is a rate or a ratio, so higher is better.
//
//   sweep.*     in-process run_sweep of the smoke and multihop grids at 4
//               threads: runs/s and rounds/s.  Absolute rates cross
//               machines, so their bound is 0.90.
//   engine.*    world-rounds/s of fresh one-world engines for three
//               engine shapes at n = 16/64/256 (shown, not gated), and
//               each one's `.rel`: its rate over the consensus_clique
//               n = 16 rate of the same rep.  The shapes run in one pass
//               per rep, the order reversing each rep.  The ratio is
//               machine-relative: bound 0.25.
//                 consensus_clique  loss-free single-hop consensus
//                 saturated_clique  every process broadcasts every round
//                 mis_grid          MIS over the capture channel
//   numfmt.*    values/s of the report formatters over the numbers one
//               perfbench wide_grid pass renders (its 4,800 single-hop
//               cells at seed 1): numfmt::append_fixed(·, 4) against plain
//               std::to_chars(fixed, 4), and numfmt::append_shortest
//               against the charconv search it keeps as its fallback.  The
//               arms run interleaved, the order alternating each rep, and
//               must render the same bytes (exit 2 otherwise).  Their
//               ratio is machine-relative: bound 0.25.
//   dispatch.*  the same 48-cell grid on 4 worker processes, where every
//               run sleeps 75 ms via CCD_SWEEP_TEST_RUN_DELAY_MS and worker
//               0's runs sleep 4x that: static `--emit-shards 4` specs
//               (wall = the slow worker's whole shard) against
//               run_dispatch's heartbeat steal.  The speedup is gated at
//               0.25; ccd_bench also fails when the arms' merged reports
//               differ by a byte (exit 2) or the median speedup is below
//               1.5x (exit 1, after writing the file).
//
// The dispatch workers are the ccd_sweep binary beside this one, and
// their files live in a fresh temporary directory that is removed after.
//
// Usage: ccd_bench --out PATH
#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cd/oracle_detector.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "fault/failure_adversary.hpp"
#include "multihop/flood.hpp"
#include "multihop/mis.hpp"
#include "net/no_loss.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/telemetry.hpp"
#include "util/numfmt.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;
namespace fs = std::filesystem;

constexpr double kAbsoluteBound = 0.90;  ///< rates that cross machines
constexpr double kRelativeBound = 0.25;  ///< ratios of two arms

/// One ccd-bench-v2 entry; bound 0 means shown but not gated.
struct Entry {
  Entry(std::string name_in, std::string unit_in, double bound_in = 0)
      : name(std::move(name_in)), unit(std::move(unit_in)), bound(bound_in) {}
  std::string name, unit;
  double bound;
  std::vector<double> samples;
};

double per_sec(double count, std::uint64_t ns) {
  return ns > 0 ? count / (static_cast<double>(ns) * 1e-9) : 0.0;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

// ---- sweep ------------------------------------------------------------------

constexpr int kSweepReps = 7;

void bench_sweeps(std::vector<Entry>* entries) {
  for (const std::string name : {"smoke", "multihop"}) {
    const SweepGrid grid = *SweepGrid::named(name);
    Entry runs{"sweep." + name + ".runs_per_s", "runs/s", kAbsoluteBound};
    Entry rounds{"sweep." + name + ".rounds_per_s", "rounds/s",
                 kAbsoluteBound};
    for (int rep = 0; rep < kSweepReps; ++rep) {
      obs::SweepPerf perf;
      SweepOptions options;
      options.threads = 4;
      options.perf = &perf;
      run_sweep(grid, options);
      runs.samples.push_back(
          per_sec(static_cast<double>(perf.runs), perf.wall_ns));
      rounds.samples.push_back(
          per_sec(static_cast<double>(perf.counters.rounds), perf.wall_ns));
    }
    entries->push_back(std::move(runs));
    entries->push_back(std::move(rounds));
  }
}

// ---- engine -----------------------------------------------------------------

constexpr int kEngineReps = 7;
constexpr Round kEngineRounds = 128;

EngineWorld consensus_clique(std::size_t n, std::uint64_t seed) {
  Alg2Algorithm alg(1 << 16);
  WakeupService::Options ws;
  ws.r_wake = 1u << 30;
  ws.pre = WakeupService::PreStabilization::kAllActive;
  EngineWorld ew;
  ew.world = make_world(alg, random_initial_values(n, 1 << 16, seed),
                        std::make_unique<WakeupService>(ws),
                        std::make_unique<OracleDetector>(
                            DetectorSpec::ZeroOAC(1u << 30),
                            make_truthful_policy()),
                        std::make_unique<NoLoss>(),
                        std::make_unique<NoFailures>());
  ew.channel = ChannelModel::kMatrix;
  ew.scope = CollisionScope::kGlobal;
  return ew;
}

EngineWorld saturated_clique(std::size_t n, std::uint64_t seed) {
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    FloodProcess::Options o;
    o.is_source = i == 0;
    o.policy = FloodPolicy::kFixed;
    o.p_broadcast = 1.0;
    o.fresh_rounds = 1u << 30;
    o.seed = seed * 131 + i;
    ew.world.processes.push_back(std::make_unique<FloodProcess>(o));
  }
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.world.loss = std::make_unique<NoLoss>();
  ew.world.fault = std::make_unique<NoFailures>();
  ew.channel = ChannelModel::kMatrix;
  ew.scope = CollisionScope::kGlobal;
  return ew;
}

EngineWorld mis_grid(std::size_t n, std::uint64_t seed) {
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    MisProcess::Options o;
    o.seed = seed * 131 + i;
    ew.world.processes.push_back(std::make_unique<MisProcess>(o));
  }
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.topology = std::make_shared<const Topology>(Topology::grid_n(n));
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = {0.9, 0.3};
  ew.link_seed = seed;
  return ew;
}

using MakeWorld = EngineWorld (*)(std::size_t, std::uint64_t);

/// World-rounds/s of 16384/n one-world engines (seeds from seed0 on; the
/// count keeps every shape's timed region near the n = 256 one), each
/// built and stepped kEngineRounds rounds.  World construction is timed.
double engine_rate(MakeWorld make, std::size_t n, std::uint64_t seed0) {
  const std::size_t worlds = 16384 / n;
  obs::RunTimer timer;
  for (std::size_t k = 0; k < worlds; ++k) {
    LaneEngine engine(make(n, seed0 + k));
    for (Round r = 0; r < kEngineRounds; ++r) engine.step();
  }
  return per_sec(static_cast<double>(worlds * kEngineRounds),
                 timer.elapsed_ns());
}

void bench_engine(std::vector<Entry>* entries) {
  struct Shape {
    const char* name;
    MakeWorld make;
  };
  struct Config {
    Shape shape;
    std::size_t n;
  };
  std::vector<Config> configs;
  for (const Shape& shape : {Shape{"consensus_clique", consensus_clique},
                             Shape{"saturated_clique", saturated_clique},
                             Shape{"mis_grid", mis_grid}}) {
    for (const std::size_t n : {16, 64, 256}) configs.push_back({shape, n});
  }
  // rates[c][rep]; configs[0], consensus_clique at n = 16, is the
  // reference every .rel divides by.
  std::vector<std::vector<double>> rates(configs.size());
  for (int rep = 0; rep < kEngineReps; ++rep) {
    const std::uint64_t seed0 = 4096 * static_cast<std::uint64_t>(rep);
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const std::size_t c = rep % 2 == 0 ? k : configs.size() - 1 - k;
      rates[c].push_back(
          engine_rate(configs[c].shape.make, configs[c].n, seed0));
    }
  }
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::string name = std::string("engine.") + configs[c].shape.name +
                             ".n" + std::to_string(configs[c].n);
    Entry rate{name, "world-rounds/s"};
    rate.samples = rates[c];
    entries->push_back(std::move(rate));
    if (c == 0) continue;  // the reference over itself is 1
    Entry rel{name + ".rel", "x", kRelativeBound};
    for (int rep = 0; rep < kEngineReps; ++rep) {
      const double ref = rates[0][rep];
      rel.samples.push_back(ref > 0 ? rates[c][rep] / ref : 0.0);
    }
    entries->push_back(std::move(rel));
  }
  std::fprintf(stderr, "ccd_bench: engine done\n");
}

// ---- numfmt -----------------------------------------------------------------

constexpr int kNumfmtReps = 7;
constexpr int kNumfmtPasses = 8;  ///< passes over the mix per timed arm

/// perfbench's wide_grid workload at seed 1: every algorithm, detector,
/// policy, CM and loss adversary of the single-hop model, one seed per
/// cell at n = 4.
SweepGrid wide_grid() {
  SweepGrid grid = *SweepGrid::named("default");
  grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3, AlgKind::kAlg4,
               AlgKind::kNaive};
  grid.detectors = {DetectorKind::kAC,      DetectorKind::kMajAC,
                    DetectorKind::kHalfAC,  DetectorKind::kZeroAC,
                    DetectorKind::kOAC,     DetectorKind::kMajOAC,
                    DetectorKind::kHalfOAC, DetectorKind::kZeroOAC,
                    DetectorKind::kNoCd,    DetectorKind::kNoAcc};
  grid.policies = {PolicyKind::kTruthful,        PolicyKind::kPreferNull,
                   PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                   PolicyKind::kFlakyMajority,   PolicyKind::kRandomLegal};
  grid.cms = {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader,
              CmKind::kBackoff};
  grid.losses = {LossKind::kNoLoss, LossKind::kEcf, LossKind::kProbabilistic,
                 LossKind::kUnrestricted};
  grid.csts = {3};
  grid.value_spaces = {2};
  grid.base.n = 4;
  grid.base.max_rounds = 32;
  grid.seeds_per_cell = 1;
  grid.grid_seed = 1;
  return grid;
}

/// The numbers of a report text: a number with exactly four decimals and
/// no exponent was rendered %.4f, any other with a point or an exponent
/// is a shortest form (integers come from append_int and are skipped).
struct NumberMix {
  std::vector<double> fixed4, shortest;
};

NumberMix report_numbers(const std::string& text) {
  NumberMix mix;
  std::size_t end = 0;
  for (std::size_t start; (start = text.find_first_of("-0123456789", end)) !=
                          std::string::npos;) {
    end = std::min(text.find_first_not_of("0123456789.eE+-", start),
                   text.size());
    const char before = start > 0 ? text[start - 1] : ' ';
    if (std::isalnum(static_cast<unsigned char>(before)) || before == '_' ||
        before == '-' || before == '.') {
      continue;  // part of a name such as "p50" or "random-legal"
    }
    const std::string_view token(text.data() + start, end - start);
    const std::size_t point = token.find('.');
    const bool exponent = token.find_first_of("eE") != std::string_view::npos;
    double value = 0;
    const char* const last = token.data() + token.size();
    const auto parsed = std::from_chars(token.data(), last, value);
    if ((point == std::string_view::npos && !exponent) ||
        parsed.ec != std::errc() || parsed.ptr != last) {
      continue;
    }
    const bool four = !exponent && token.size() - point - 1 == 4;
    (four ? mix.fixed4 : mix.shortest).push_back(value);
  }
  return mix;
}

/// %.4f through plain <charconv>: the fixed arm's reference.
void to_chars_fixed4(std::string& out, double d) {
  char buf[400];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::fixed, 4);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

/// The charconv shortest-form search (the first %.{P}g, from the shortest
/// scientific form's digit count up, that from_chars parses back to d):
/// the shortest arm's reference.
void charconv_shortest(std::string& out, double d) {
  if (std::isfinite(d)) {
    char buf[32];
    char* const end = buf + sizeof buf;
    const char* const sci =
        std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char* p = buf; p != sci && *p != 'e'; ++p) {
      digits += *p >= '0' && *p <= '9';
    }
    for (int precision = std::max(digits, 1); precision <= 17; ++precision) {
      const char* const stop =
          std::to_chars(buf, end, d, std::chars_format::general, precision)
              .ptr;
      double back = 0;
      const auto parsed = std::from_chars(buf, stop, back);
      if (parsed.ec == std::errc() && back == d) {
        out.append(buf, static_cast<std::size_t>(stop - buf));
        return;
      }
    }
  }
  ccd::numfmt::append_general(out, d, 17);
}

using Format = void (*)(std::string&, double);

/// Values/s of kNumfmtPasses passes of `format` over `values`; `out`
/// holds the last pass's text.
double format_arm(Format format, const std::vector<double>& values,
                  std::string* out) {
  obs::RunTimer timer;
  for (int pass = 0; pass < kNumfmtPasses; ++pass) {
    out->clear();
    for (const double v : values) format(*out, v);
  }
  return per_sec(static_cast<double>(values.size()) * kNumfmtPasses,
                 timer.elapsed_ns());
}

/// 0 on success; 2 when an arm's text differs from its reference's.
int bench_numfmt(std::vector<Entry>* entries) {
  const SweepGrid grid = wide_grid();
  SweepOptions options;
  options.threads = 4;
  const std::vector<CellAggregate> cells =
      aggregate(grid, run_sweep(grid, options));
  const NumberMix mix = report_numbers(aggregates_to_json(grid, cells) +
                                       aggregates_to_csv(cells) +
                                       cells_to_dist_json(grid, cells));
  struct Family {
    const char* name;
    const char* reference_name;
    const std::vector<double>* values;
    Format numfmt;
    Format reference;
  };
  const Family families[] = {
      {"fixed4", "to_chars", &mix.fixed4,
       [](std::string& out, double d) { ccd::numfmt::append_fixed(out, d, 4); },
       to_chars_fixed4},
      {"shortest", "search", &mix.shortest, ccd::numfmt::append_shortest,
       charconv_shortest}};
  for (const Family& family : families) {
    const std::string prefix = std::string("numfmt.") + family.name;
    Entry fast{prefix + ".numfmt", "values/s"};
    Entry reference{prefix + "." + family.reference_name, "values/s"};
    Entry speedup{prefix + ".speedup", "x", kRelativeBound};
    for (int rep = 0; rep < kNumfmtReps; ++rep) {
      std::string fast_text, reference_text;
      double f = 0, r = 0;
      for (const bool numfmt : {rep % 2 == 0, rep % 2 == 1}) {
        if (numfmt) {
          f = format_arm(family.numfmt, *family.values, &fast_text);
        } else {
          r = format_arm(family.reference, *family.values, &reference_text);
        }
      }
      if (fast_text != reference_text) {
        std::fprintf(stderr, "ccd_bench: %s renders differently from %s\n",
                     prefix.c_str(), family.reference_name);
        return 2;
      }
      fast.samples.push_back(f);
      reference.samples.push_back(r);
      speedup.samples.push_back(r > 0 ? f / r : 0.0);
    }
    std::fprintf(stderr, "ccd_bench: %s done (%zu values)\n", prefix.c_str(),
                 family.values->size());
    entries->push_back(std::move(fast));
    entries->push_back(std::move(reference));
    entries->push_back(std::move(speedup));
  }
  return 0;
}

// ---- dispatch ---------------------------------------------------------------

constexpr int kDispatchReps = 3;
constexpr std::size_t kWorkers = 4;
constexpr std::uint64_t kBaseDelayMs = 75;
constexpr std::uint64_t kSlowFactor = 4;
constexpr double kStaleAfterSecs = 0.15;
constexpr double kMinDispatchSpeedup = 1.5;

/// The smoke product widened along the cheap CST axis to 48 one-seed
/// cells.  Real cell cost is microseconds, so the injected delay sets the
/// skew and the ratio holds across machines.
SweepGrid dispatch_grid() {
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

/// An empty directory at `path` (whatever the previous arm left is gone).
void fresh_dir(const fs::path& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

struct ArmResult {
  std::uint64_t wall_ns = 0;
  std::string report;  ///< merged JSON + CSV + dist, for the byte check
};

std::string render(const MergeResult& merged) {
  return aggregates_to_json(merged.grid, merged.cells) +
         aggregates_to_csv(merged.cells) +
         cells_to_dist_json(merged.grid, merged.cells);
}

/// Static arm: the `--emit-shards 4` + `--shard-file` + merge workflow,
/// all workers launched together; wall = the last exit.
bool run_static_arm(const SweepGrid& grid, const fs::path& dir,
                    const std::string& worker_bin, ArmResult* out,
                    std::string* error) {
  fresh_dir(dir);
  const std::vector<ShardSpec> shards = ShardPlanner::plan(grid, kWorkers);
  LocalProcessTransport transport;
  std::vector<int> handles;
  std::vector<std::string> report_paths;
  obs::RunTimer timer;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string base = (dir / std::to_string(i)).string();
    report_paths.push_back(base + ".report.json");
    std::ofstream(base + ".spec.json", std::ios::binary)
        << shards[i].to_json() << "\n";
    const int handle = transport.spawn(
        {worker_bin, "--shard-file", base + ".spec.json", "--json",
         report_paths.back(), "--threads", "1", "--quiet"},
        {delay_env(i)});
    if (handle < 0) {
      *error = "cannot spawn static worker " + std::to_string(i);
      return false;
    }
    handles.push_back(handle);
  }
  for (bool running = true; running;) {
    running = false;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const WorkerStatus status = transport.poll(handles[i]);
      if (status.running) {
        running = true;
      } else if (status.exit_code != 0) {
        *error = "static worker " + std::to_string(i) + " exited " +
                 std::to_string(status.exit_code);
        return false;
      }
    }
    if (running) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  out->wall_ns = timer.elapsed_ns();

  std::vector<ShardReport> reports;
  for (const std::string& path : report_paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    auto report = ShardReport::from_json(text.str(), error);
    if (!report) return false;
    reports.push_back(std::move(*report));
  }
  auto merged = merge_shard_reports(reports, error);
  if (!merged) return false;
  out->report = render(*merged);
  return true;
}

bool run_dynamic_arm(const SweepGrid& grid, const fs::path& dir,
                     const std::string& worker_bin, ArmResult* out,
                     std::string* error) {
  fresh_dir(dir);
  DispatchOptions options;
  options.workers = kWorkers;
  options.stale_after_secs = kStaleAfterSecs;
  options.poll_ms = 20;
  options.work_dir = dir.string();
  options.worker_bin = worker_bin;
  options.worker_args = {"--threads", "1"};
  for (std::size_t i = 0; i < kWorkers; ++i) {
    options.worker_env.push_back({delay_env(i)});
  }
  auto result = run_dispatch(grid, options, error);
  if (!result) return false;
  out->wall_ns = result->stats.wall_ns;
  out->report = render(result->merged);
  return true;
}

/// 0 on success; 1 when the median speedup is below the floor; 2 when an
/// arm fails or the arms' merged reports differ (no entries then).
int bench_dispatch(std::vector<Entry>* entries) {
  std::string tmpl = (fs::temp_directory_path() / "ccd-bench-XXXXXX").string();
  if (!::mkdtemp(tmpl.data())) {
    std::fprintf(stderr, "ccd_bench: cannot create a work dir\n");
    return 2;
  }
  const fs::path work_dir = tmpl;
  const std::string worker_bin =
      (fs::read_symlink("/proc/self/exe").parent_path() / "ccd_sweep")
          .string();
  const SweepGrid grid = dispatch_grid();
  const double runs = static_cast<double>(grid.num_runs());

  Entry stat{"dispatch.static", "runs/s"};
  Entry dyn{"dispatch.dynamic", "runs/s"};
  Entry speedup{"dispatch.speedup", "x", kRelativeBound};
  std::string error;
  int status = 0;
  for (int rep = 0; rep < kDispatchReps && status == 0; ++rep) {
    ArmResult s, d;
    bool ok = true;
    for (const bool dynamic : {rep % 2 == 1, rep % 2 == 0}) {
      ok = ok && (dynamic ? run_dynamic_arm(grid, work_dir / "dynamic",
                                            worker_bin, &d, &error)
                          : run_static_arm(grid, work_dir / "static",
                                           worker_bin, &s, &error));
    }
    if (!ok) {
      std::fprintf(stderr, "ccd_bench: dispatch arm: %s\n", error.c_str());
      status = 2;
    } else if (s.report != d.report) {
      std::fprintf(stderr,
                   "ccd_bench: dynamic and static merged reports DIFFER -- "
                   "determinism bug\n");
      status = 2;
    } else {
      stat.samples.push_back(per_sec(runs, s.wall_ns));
      dyn.samples.push_back(per_sec(runs, d.wall_ns));
      speedup.samples.push_back(
          d.wall_ns > 0 ? static_cast<double>(s.wall_ns) /
                              static_cast<double>(d.wall_ns)
                        : 0.0);
      std::fprintf(stderr, "ccd_bench: dispatch rep %d: %.2fx\n", rep,
                   speedup.samples.back());
    }
  }
  std::error_code ignored;
  fs::remove_all(work_dir, ignored);
  if (status != 0) return status;
  const double median_speedup = median(speedup.samples);
  entries->push_back(std::move(stat));
  entries->push_back(std::move(dyn));
  entries->push_back(std::move(speedup));
  if (median_speedup < kMinDispatchSpeedup) {
    std::fprintf(stderr,
                 "ccd_bench: FAIL: dispatch speedup %.2fx below the %.1fx "
                 "floor\n",
                 median_speedup, kMinDispatchSpeedup);
    return 1;
  }
  return 0;
}

// ---- output -----------------------------------------------------------------

std::string to_json(const std::vector<Entry>& entries) {
  std::string out = "{\"format\":\"ccd-bench-v2\",\"entries\":[";
  char buf[512];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const auto [lo, hi] = std::minmax_element(e.samples.begin(),
                                              e.samples.end());
    std::snprintf(buf, sizeof buf,
                  "%s\n {\"name\":\"%s\",\"unit\":\"%s\",\"median\":%.6g,"
                  "\"min\":%.6g,\"max\":%.6g,\"reps\":%zu",
                  i > 0 ? "," : "", e.name.c_str(), e.unit.c_str(),
                  median(e.samples), *lo, *hi, e.samples.size());
    out += buf;
    if (e.bound > 0) {
      std::snprintf(buf, sizeof buf, ",\"bound\":%.2f", e.bound);
      out += buf;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--out") {
    std::fprintf(stderr, "usage: ccd_bench --out PATH\n");
    return 2;
  }
  const std::string out_path = argv[2];

  std::vector<Entry> entries;
  obs::RunTimer timer;
  bench_sweeps(&entries);
  bench_engine(&entries);
  if (bench_numfmt(&entries) != 0) return 2;
  const int status = bench_dispatch(&entries);
  if (status == 2) return 2;

  std::ofstream out(out_path, std::ios::binary);
  out << to_json(entries);
  out.close();
  if (!out) {
    std::fprintf(stderr, "ccd_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "ccd_bench: %zu entries -> %s in %.1f s\n",
               entries.size(), out_path.c_str(),
               static_cast<double>(timer.elapsed_ns()) * 1e-9);
  return status;
}
