// perfbench core: the benchmark's workloads, the two ways of running one
// (the program's own untraced path, and a layer-by-layer traced replica of
// it), the probes that time single layers, and the span recorder.  The
// benchmark program (main.cpp) and the self-test share everything here.
//
// Layers are the repo's modules: exp/sweep_grid, exp/sweep_runner, engine
// (LaneExecutor::run_block / WorldFactory::run_scenario), multihop/topology,
// exp/world_factory, exp/aggregator (fold + report rendering), exp/shard and
// exp/dispatch.  Spans wrap the calls the benchmark makes into each layer's
// public functions; nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  kMultihopMixed,
  kWideGrid,
};
std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload workload);

/// kFull is what the benchmark measures; kTiny shrinks every axis for the
/// in-process layer test so a whole workload runs in well under a second.
enum class Size : std::uint8_t { kFull, kTiny };

/// The grid a workload sweeps.  `seed` becomes the grid's grid_seed, so
/// every run's inputs derive from it.
ccd::exp::SweepGrid make_grid(Workload workload, std::uint64_t seed,
                              Size size);

std::uint64_t now_ns();
std::uint64_t fnv1a(const std::string& text);

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into Tracer::spans(), -1 = root
  std::uint32_t tid = 0;       ///< 0 = the main thread, k > 0 = slot k-1
  std::int64_t id = -1;        ///< run index, block index or batch id
};

/// In-memory span recorder.  begin/end nest on the main thread (a span's
/// parent is the innermost open span); add() records a finished span on
/// another track, e.g. a fleet worker's lifetime.
class Tracer {
 public:
  Tracer() : epoch_(now_ns()) {}

  std::size_t begin(const char* name, const char* layer, std::int64_t id = -1);
  void end(std::size_t span);
  void add(const char* name, const char* layer, std::uint64_t start_abs_ns,
           std::uint64_t end_abs_ns, std::uint32_t tid, std::int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Seconds spent in each layer's own spans, minus their children.
  std::map<std::string, double> self_seconds() const;
  /// Total duration of every span with this name.
  double total_seconds(const char* name) const;
  /// Summed duration of root spans on the main thread.
  double root_seconds() const;

  /// Chrome trace-event JSON (the format obs/chrome_trace emits), so the
  /// spans open in Perfetto or chrome://tracing.
  std::string chrome_trace_json(const std::string& title) const;

 private:
  std::uint64_t epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span on the main thread; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer,
        std::int64_t id = -1)
      : tracer_(tracer), span_(tracer ? tracer->begin(name, layer, id) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

// ---- planning ---------------------------------------------------------------

/// One scheduling unit of SweepRunner's pool: `count` consecutive runs of
/// one cell; count > 1 goes through LaneExecutor::run_block.
struct Block {
  std::size_t first = 0;
  std::size_t count = 1;
};

struct Plan {
  std::vector<Block> blocks;
  std::size_t runs = 0;
  std::size_t lane_blocks = 0;  ///< blocks with count > 1
  std::size_t laned_runs = 0;   ///< runs inside those blocks
  double lane_fill() const;     ///< runs per lane block / kLaneWidth
  double laned_fraction() const;
};

/// The block partition run_sweep makes for a single-threaded, lanes-on
/// sweep: spec_for_run + LaneExecutor::eligible over every run.
Plan plan_blocks(const ccd::exp::SweepGrid& grid);

// ---- passes -----------------------------------------------------------------

struct Hashes {
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
  std::uint64_t dist = 0;
  friend bool operator==(const Hashes&, const Hashes&) = default;
};
std::string to_hex(std::uint64_t value);

/// What one execution of a workload produced and cost.
struct PassResult {
  std::string error;         ///< non-empty: the pass could not finish
  std::uint64_t runs = 0;
  std::uint64_t keyed_errors = 0;  ///< runs with a MultihopSummary::error
  ccd::obs::EngineCounters counters;
  Hashes hashes;
  std::uint64_t report_bytes = 0;
  double wall_s = 0;   ///< start to last report byte written
  double setup_s = 0;  ///< untraced: start to the first run's execution
  double cpu_s = 0;    ///< user + system, children included
  /// Untraced passes: wall_s cut into consecutive pieces that do the same
  /// work in every pass of a workload.  Piece 0 is the setup; the next
  /// `exec_pieces` are the execution (one per run, from the previous run's
  /// end to this run's end, 0 for the later runs of a lane block, then the
  /// pool's drain); the rest are aggregation and the three reports.
  std::vector<std::uint64_t> pieces_ns;
  std::size_t exec_pieces = 0;
};

/// Everything the probes need from a traced pass.
struct Artifacts {
  ccd::exp::SweepGrid grid;
  Plan plan;  ///< in-process passes only; fleet_plan_probe fills it
  std::vector<ccd::exp::RunRecord> records;  ///< in-process passes only
  std::vector<ccd::exp::CellAggregate> cells;
  std::uint64_t json_hash = 0;  ///< of the pass's JSON report
};

/// Per-layer numbers of one traced pass, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// The program's own path: run_sweep, aggregate, render and write the JSON,
/// CSV and dist reports into `out_dir`.
PassResult run_untraced(Workload workload, std::uint64_t seed, Size size,
                        const std::string& out_dir);

/// The same sweep driven layer by layer on one thread with a span around
/// every call into a layer.  Records and report bytes equal run_untraced's.
PassResult run_traced(Workload workload, std::uint64_t seed, Size size,
                      const std::string& out_dir, Tracer& tracer,
                      LayerMetrics& layers, Artifacts* keep = nullptr);

/// The traced pass's sweep step alone: plan + blocks, records in run order.
std::vector<ccd::exp::RunRecord> traced_sweep(const ccd::exp::SweepGrid& grid,
                                              Tracer& tracer, Plan& plan);

/// The fleet wide_grid's traced run sends its grid through: 3
/// single-threaded workers plus the dispatcher fill a 4-core machine; a
/// 10 ms poll.
inline constexpr std::size_t kFleetWorkers = 3;
inline constexpr std::uint64_t kFleetPollMs = 10;

struct FleetConfig {
  std::string worker_bin;  ///< a ccd_sweep build
  std::string work_dir;    ///< must exist
};

/// The grid through run_dispatch with kFleetWorkers ccd_sweep workers,
/// then the three reports.  Spawn/poll calls and worker lifetimes become
/// spans; the dispatch layer's numbers (dispatch.*, self.dispatch_s) land
/// in `layers`.
PassResult run_fleet(Workload workload, std::uint64_t seed, Size size,
                     const std::string& out_dir, const FleetConfig& config,
                     Tracer& tracer, LayerMetrics& layers);

// ---- probes -----------------------------------------------------------------
// Probes run after a traced pass, under a "probes" root span, so they add
// nothing to the traced pass's wall time or span coverage.

/// make_topology + diameter() for every graph the executed path builds.
void topology_probe(const Artifacts& artifacts, Tracer& tracer,
                    LayerMetrics& layers);
/// WorldFactory::make for every consensus world the runs construct.
void factory_probe(const Artifacts& artifacts, Tracer& tracer,
                   LayerMetrics& layers);
/// Encode the aggregates as the fleet's shard reports, decode and merge
/// them; returns false (and sets *error) if the merge does not reproduce
/// the single-process JSON report.
bool shard_probe(const Artifacts& artifacts, Tracer& tracer,
                 LayerMetrics& layers, std::string* error);

/// The dispatcher's batch split for a queue that never steals: contiguous
/// cell ranges of next_batch_size(pending, kFleetWorkers) cells.
std::vector<std::vector<std::size_t>> fleet_split(std::size_t cells);

/// Every per-layer metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();
/// Every end-to-end metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_units();

}  // namespace perfbench
