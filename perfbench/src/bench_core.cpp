#include "bench_core.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>

#include "engine/lane_engine.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/dispatch/worker_transport.hpp"
#include "exp/lane_executor.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/world_factory.hpp"
#include "multihop/topology.hpp"

namespace perfbench {

using ccd::exp::CellAggregate;
using ccd::exp::RunRecord;
using ccd::exp::ScenarioOutcome;
using ccd::exp::ScenarioSpec;
using ccd::exp::SweepGrid;

namespace {

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double cpu_seconds() {
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv(self.ru_utime) + tv(self.ru_stime) + tv(children.ru_utime) +
         tv(children.ru_stime);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return !out.fail();
}

/// The three reports a pass writes, kept so they are hashed after the
/// pass's clock stops.
struct Reports {
  std::string json, csv, dist;
};

/// Render one report and write it; `name` is the span name.  Without a
/// tracer, the time it took becomes the pass's next piece.
template <typename Render>
bool emit_report(Tracer* tracer, const char* name, const std::string& path,
                 Render render, std::string& text, PassResult& r) {
  Scope scope(tracer, name, "report");
  const std::uint64_t start = now_ns();
  text = render();
  const bool ok = write_file(path, text);
  if (!tracer) r.pieces_ns.push_back(now_ns() - start);
  return ok;
}

/// Render and write the JSON, CSV and dist reports the way ccd_sweep does.
bool emit_reports(Tracer* tracer, const std::string& out_dir,
                  const SweepGrid& grid,
                  const std::vector<CellAggregate>& cells, Reports& reports,
                  PassResult& r) {
  using namespace ccd::exp;
  if (!emit_report(
          tracer, "report.json", out_dir + "/report.json",
          [&] { return aggregates_to_json(grid, cells); }, reports.json, r) ||
      !emit_report(
          tracer, "report.csv", out_dir + "/report.csv",
          [&] { return aggregates_to_csv(cells); }, reports.csv, r) ||
      !emit_report(
          tracer, "report.dist", out_dir + "/report.dist.json",
          [&] { return cells_to_dist_json(grid, cells) + "\n"; },
          reports.dist, r)) {
    r.error = "cannot write reports under " + out_dir;
    return false;
  }
  return true;
}

void hash_reports(const Reports& reports, PassResult& r) {
  r.hashes = {fnv1a(reports.json), fnv1a(reports.csv), fnv1a(reports.dist)};
  r.report_bytes =
      reports.json.size() + reports.csv.size() + reports.dist.size();
}

void add_engine_layers(const ccd::obs::EngineCounters& c,
                       LayerMetrics& layers) {
  auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };
  layers["engine.rounds"] = as_double(c.rounds);
  layers["engine.messages_sent"] = as_double(c.messages_sent);
  layers["engine.messages_delivered"] = as_double(c.messages_delivered);
  layers["engine.collisions"] = as_double(c.collisions);
  layers["engine.cm_advice_calls"] = as_double(c.cm_advice_calls);
  layers["engine.cd_advice_calls"] = as_double(c.cd_advice_calls);
  layers["engine.crashes"] =
      as_double(c.crashes_before_send + c.crashes_after_send);
}

/// Self time per layer and span coverage, taken when a pass ends (before
/// any probe adds spans).
void add_trace_layers(const Tracer& tracer, double wall_s,
                      LayerMetrics& layers) {
  for (const auto& [layer, self_s] : tracer.self_seconds()) {
    layers["self." + layer + "_s"] = self_s;
  }
  layers["trace.span_coverage"] =
      wall_s > 0 ? tracer.root_seconds() / wall_s : 0.0;
}

/// Records every spawn and poll call and each worker's lifetime.
class FleetTransport final : public ccd::exp::WorkerTransport {
 public:
  explicit FleetTransport(Tracer& tracer) : tracer_(tracer) {}

  int spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) override {
    const std::int64_t batch = spawns_++;
    int handle = -1;
    {
      Scope scope(&tracer_, "dispatch.spawn", "dispatch", batch);
      handle = inner_.spawn(argv, env);
    }
    if (handle >= 0) {
      if (static_cast<std::size_t>(handle) >= live_.size()) {
        live_.resize(static_cast<std::size_t>(handle) + 1);
      }
      live_[static_cast<std::size_t>(handle)] = {true, now_ns(),
                                                 slot_of(env), batch};
    }
    return handle;
  }

  ccd::exp::WorkerStatus poll(int handle) override {
    ccd::exp::WorkerStatus status;
    {
      Scope scope(&tracer_, "dispatch.poll", "dispatch", handle);
      status = inner_.poll(handle);
    }
    if (!status.running) retire(handle);
    return status;
  }

  void kill_worker(int handle) override {
    inner_.kill_worker(handle);
    retire(handle);
  }

  std::uint64_t spawns() const { return static_cast<std::uint64_t>(spawns_); }

 private:
  struct Worker {
    bool running = false;
    std::uint64_t start_ns = 0;
    std::uint32_t slot = 0;
    std::int64_t batch = -1;
  };

  static std::uint32_t slot_of(const std::vector<std::string>& env) {
    static const std::string kKey = "CCD_DISPATCH_WORKER=";
    for (const std::string& kv : env) {
      if (kv.compare(0, kKey.size(), kKey) == 0) {
        return static_cast<std::uint32_t>(
            std::strtoul(kv.c_str() + kKey.size(), nullptr, 10));
      }
    }
    return 0;
  }

  void retire(int handle) {
    if (handle < 0 || static_cast<std::size_t>(handle) >= live_.size()) {
      return;
    }
    Worker& w = live_[static_cast<std::size_t>(handle)];
    if (!w.running) return;
    w.running = false;
    tracer_.add("shard.worker", "shard_worker", w.start_ns, now_ns(),
                w.slot + 1, w.batch);
  }

  Tracer& tracer_;
  ccd::exp::LocalProcessTransport inner_;
  std::int64_t spawns_ = 0;
  std::vector<Worker> live_;
};

}  // namespace

// ---- workloads --------------------------------------------------------------

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kMultihopMixed, Workload::kWideGrid}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kMultihopMixed: return "multihop_mixed";
    case Workload::kWideGrid: return "wide_grid";
  }
  return "?";
}

SweepGrid make_grid(Workload workload, std::uint64_t seed, Size size) {
  using namespace ccd::exp;
  const bool tiny = size == Size::kTiny;
  SweepGrid grid;
  switch (workload) {
    case Workload::kMultihopMixed:
      // The named grid at 12 seeds per cell rather than the shipped 3: the
      // grid seed moves the work (rounds per run) 4.8% between seeds at 3
      // seeds per cell, 1.1% at 12.
      grid = *SweepGrid::named("multihop");
      grid.seeds_per_cell = 12;
      if (tiny) {
        grid.ns = {8};
        grid.seeds_per_cell = 2;
      }
      break;
    case Workload::kWideGrid:
      // Many cheap cells: per-cell costs (planning, aggregation, rendering,
      // shard encoding) dominate the engine.  One CST and one value space
      // keep a pass near 0.1 s and its footprint small: at 19,200 cells
      // (0.35 s, 80 MB) neighbours' memory traffic slowed even the
      // reports' fastest times for minutes at a stretch.
      grid = *SweepGrid::named("default");
      grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                   AlgKind::kAlg4, AlgKind::kNaive};
      if (tiny) {
        grid.detectors = {DetectorKind::kAC, DetectorKind::kNoCd};
        grid.policies = {PolicyKind::kTruthful, PolicyKind::kRandomLegal};
        grid.cms = {CmKind::kNoCm, CmKind::kWakeup};
        grid.losses = {LossKind::kEcf, LossKind::kUnrestricted};
      } else {
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
        grid.losses = {LossKind::kNoLoss, LossKind::kEcf,
                       LossKind::kProbabilistic, LossKind::kUnrestricted};
      }
      grid.csts = {3};
      grid.value_spaces = {2};
      grid.base.n = 4;
      grid.base.max_rounds = 32;
      grid.seeds_per_cell = 1;
      break;
  }
  grid.grid_seed = seed;
  return grid;
}

std::uint64_t now_ns() { return ccd::obs::RunTimer::now_ns(); }

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---- spans ------------------------------------------------------------------

std::size_t Tracer::begin(const char* name, const char* layer,
                          std::int64_t id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = now_ns() - epoch_;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.id = id;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_ns = now_ns() - epoch_;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::add(const char* name, const char* layer,
                 std::uint64_t start_abs_ns, std::uint64_t end_abs_ns,
                 std::uint32_t tid, std::int64_t id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_abs_ns > epoch_ ? start_abs_ns - epoch_ : 0;
  span.end_ns = end_abs_ns > epoch_ ? end_abs_ns - epoch_ : 0;
  span.tid = tid;
  span.id = id;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::uint64_t> children(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].layer] += seconds(dur - std::min(dur, children[i]));
  }
  return self;
}

double Tracer::total_seconds(const char* name) const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) total += span.end_ns - span.start_ns;
  }
  return seconds(total);
}

double Tracer::root_seconds() const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.tid == 0) total += span.end_ns - span.start_ns;
  }
  return seconds(total);
}

std::string Tracer::chrome_trace_json(const std::string& title) const {
  std::uint32_t max_tid = 0;
  for (const Span& span : spans_) max_tid = std::max(max_tid, span.tid);
  std::string out = "{\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"" + title + "\"}}";
  for (std::uint32_t t = 0; t <= max_tid; ++t) {
    out += ",{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(t) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out += t == 0 ? std::string("main")
                  : "worker slot " + std::to_string(t - 1);
    out += "\"}}";
  }
  char buffer[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += ",{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(span.tid);
    std::snprintf(buffer, sizeof buffer, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) / 1000.0,
                  static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    out += buffer;
    out += ",\"name\":\"";
    out += span.name;
    out += "\",\"cat\":\"";
    out += span.layer;
    out += "\",\"args\":{\"span\":" + std::to_string(i);
    out += ",\"parent\":" + std::to_string(span.parent);
    out += ",\"id\":" + std::to_string(span.id) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// ---- planning ---------------------------------------------------------------

double Plan::lane_fill() const {
  return lane_blocks > 0 ? static_cast<double>(laned_runs) /
                               static_cast<double>(lane_blocks * ccd::kLaneWidth)
                         : 0.0;
}

double Plan::laned_fraction() const {
  return runs > 0 ? static_cast<double>(laned_runs) / static_cast<double>(runs)
                  : 0.0;
}

Plan plan_blocks(const SweepGrid& grid) {
  // Mirrors SweepRunner's partition for run_sweep (index j = run j).
  Plan plan;
  plan.runs = grid.num_runs();
  const ccd::exp::RunScenarioOptions options;
  for (std::size_t j = 0; j < plan.runs;) {
    std::size_t count = 1;
    if (ccd::exp::LaneExecutor::eligible(grid.spec_for_run(j), options)) {
      const std::size_t cell = grid.cell_of_run(j);
      while (count < ccd::kLaneWidth && j + count < plan.runs &&
             grid.cell_of_run(j + count) == cell) {
        ++count;
      }
    }
    plan.blocks.push_back({j, count});
    if (count > 1) {
      ++plan.lane_blocks;
      plan.laned_runs += count;
    }
    j += count;
  }
  return plan;
}

// ---- passes -----------------------------------------------------------------

std::vector<RunRecord> traced_sweep(const SweepGrid& grid, Tracer& tracer,
                                    Plan& plan) {
  using namespace ccd::exp;
  std::vector<RunRecord> records;
  {
    // run_sweep sizes its record slots before partitioning.
    Scope scope(&tracer, "grid.plan", "sweep_grid");
    records.resize(grid.num_runs());
    plan = plan_blocks(grid);
  }
  Scope run_scope(&tracer, "sweep.run", "sweep_runner");
  ccd::obs::Telemetry::Sink& sink = ccd::obs::Telemetry::thread_sink();
  const RunScenarioOptions options;
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    const Block& blk = plan.blocks[b];
    Scope block_scope(&tracer, "sweep.block", "sweep_runner",
                      static_cast<std::int64_t>(b));
    for (std::size_t k = 0; k < blk.count; ++k) {
      RunRecord& rec = records[blk.first + k];
      rec.run_index = blk.first + k;
      rec.cell_index = grid.cell_of_run(rec.run_index);
      rec.spec = grid.spec_for_run(rec.run_index);
    }
    const std::uint64_t start = now_ns();
    std::vector<ScenarioOutcome> outcomes;
    if (blk.count == 1) {
      Scope scope(&tracer, "engine.scalar", "engine",
                  static_cast<std::int64_t>(blk.first));
      outcomes.push_back(
          WorldFactory::run_scenario(records[blk.first].spec, options));
    } else {
      std::vector<ScenarioSpec> specs(blk.count);
      for (std::size_t k = 0; k < blk.count; ++k) {
        specs[k] = records[blk.first + k].spec;
      }
      Scope scope(&tracer, "engine.lane", "engine",
                  static_cast<std::int64_t>(b));
      outcomes = LaneExecutor::run_block(specs, options);
    }
    const std::uint64_t wall_each = (now_ns() - start) / blk.count;
    for (std::size_t k = 0; k < blk.count; ++k) {
      RunRecord& rec = records[blk.first + k];
      rec.summary = std::move(outcomes[k].summary);
      rec.mh = std::move(outcomes[k].mh);
      rec.sync = outcomes[k].sync;
      rec.perf.engine = outcomes[k].counters;
      rec.perf.wall_ns = wall_each;
      rec.perf.worker = 0;
      sink.add_engine(rec.perf.engine);
      sink.add(ccd::obs::Counter::kRunsExecuted, 1);
    }
  }
  return records;
}

namespace {

void tally_records(const std::vector<RunRecord>& records, PassResult& r) {
  r.runs = records.size();
  for (const RunRecord& rec : records) {
    r.counters.add(rec.perf.engine);
    if (!rec.mh.error.empty()) ++r.keyed_errors;
  }
}

}  // namespace

PassResult run_untraced(Workload workload, std::uint64_t seed, Size size,
                        const std::string& out_dir) {
  using namespace ccd::exp;
  PassResult r;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const SweepGrid grid = make_grid(workload, seed, size);
  r.runs = grid.num_runs();
  if (auto problem = grid.validate()) {
    r.error = *problem;
    return r;
  }
  // The first record's callback fires right after its block's span closes,
  // which dates the start of the first execution without touching the
  // pool.
  SweepOptions options;
  options.threads = 1;
  options.lanes = true;
  ccd::obs::SweepPerf perf;
  options.perf = &perf;
  std::uint64_t first_start = 0;
  options.on_record = [&](const RunRecord&) {
    if (first_start != 0) return;
    const ccd::obs::RunSpan& span = perf.spans[0];
    first_start = now_ns() - (span.end_ns - span.start_ns);
  };
  const std::vector<RunRecord> records = run_sweep(grid, options);
  const std::uint64_t executed = now_ns();
  // Span times count from the pool's epoch; first_start is the first
  // span's start on this clock.
  const std::vector<ccd::obs::RunSpan>& spans = perf.spans;
  r.pieces_ns.push_back(first_start - t0);
  std::uint64_t last_end = spans.empty() ? 0 : spans[0].start_ns;
  for (const ccd::obs::RunSpan& span : spans) {
    r.pieces_ns.push_back(span.end_ns - last_end);
    last_end = span.end_ns;
  }
  const std::uint64_t pool_end =
      first_start + (spans.empty() ? 0 : last_end - spans[0].start_ns);
  r.pieces_ns.push_back(executed > pool_end ? executed - pool_end : 0);
  r.exec_pieces = spans.size() + 1;
  const std::vector<CellAggregate> cells = aggregate(grid, records);
  r.pieces_ns.push_back(now_ns() - executed);
  Reports reports;
  if (!emit_reports(nullptr, out_dir, grid, cells, reports, r)) return r;
  const std::uint64_t t_end = now_ns();
  hash_reports(reports, r);
  r.cpu_s = cpu_seconds() - cpu0;
  r.wall_s = seconds(t_end - t0);
  r.setup_s = seconds(first_start - t0);
  tally_records(records, r);
  return r;
}

PassResult run_traced(Workload workload, std::uint64_t seed, Size size,
                      const std::string& out_dir, Tracer& tracer,
                      LayerMetrics& layers, Artifacts* keep) {
  using namespace ccd::exp;
  PassResult r;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  SweepGrid grid;
  {
    Scope scope(&tracer, "grid.assemble", "sweep_grid");
    grid = make_grid(workload, seed, size);
    r.runs = grid.num_runs();
    if (auto problem = grid.validate()) {
      r.error = *problem;
      return r;
    }
  }
  Plan plan;
  std::vector<RunRecord> records = traced_sweep(grid, tracer, plan);
  std::vector<CellAggregate> cells;
  {
    Scope scope(&tracer, "aggregator.fold", "aggregator");
    cells.reserve(grid.num_cells());
    for (std::size_t c = 0; c < grid.num_cells(); ++c) {
      cells.push_back(empty_cell_aggregate(grid, c));
    }
    for (const RunRecord& rec : records) {
      accumulate_run(cells.at(rec.cell_index), rec);
    }
  }
  Reports reports;
  if (!emit_reports(&tracer, out_dir, grid, cells, reports, r)) return r;
  const std::uint64_t t_end = now_ns();
  hash_reports(reports, r);
  r.cpu_s = cpu_seconds() - cpu0;
  r.wall_s = seconds(t_end - t0);
  tally_records(records, r);

  layers["grid.plan_s"] = tracer.total_seconds("grid.plan");
  layers["sweep.blocks"] = static_cast<double>(plan.blocks.size());
  layers["sweep.lane_fill"] = plan.lane_fill();
  layers["sweep.laned_fraction"] = plan.laned_fraction();
  layers["engine.lane_s"] = tracer.total_seconds("engine.lane");
  layers["engine.scalar_s"] = tracer.total_seconds("engine.scalar");
  add_engine_layers(r.counters, layers);
  layers["aggregator.fold_s"] = tracer.total_seconds("aggregator.fold");
  layers["aggregator.stats_bytes"] =
      static_cast<double>(stats_bytes_retained(cells));
  layers["report.json_s"] = tracer.total_seconds("report.json");
  layers["report.csv_s"] = tracer.total_seconds("report.csv");
  layers["report.dist_s"] = tracer.total_seconds("report.dist");
  layers["report.bytes"] = static_cast<double>(r.report_bytes);
  add_trace_layers(tracer, r.wall_s, layers);

  if (keep) {
    keep->grid = grid;
    keep->plan = std::move(plan);
    keep->records = std::move(records);
    keep->cells = std::move(cells);
    keep->json_hash = r.hashes.json;
  }
  return r;
}

PassResult run_fleet(Workload workload, std::uint64_t seed, Size size,
                     const std::string& out_dir, const FleetConfig& config,
                     Tracer& tracer, LayerMetrics& layers) {
  using namespace ccd::exp;
  PassResult r;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  SweepGrid grid;
  {
    Scope scope(&tracer, "grid.assemble", "sweep_grid");
    grid = make_grid(workload, seed, size);
    r.runs = grid.num_runs();
    if (auto problem = grid.validate()) {
      r.error = *problem;
      return r;
    }
  }
  FleetTransport transport(tracer);
  DispatchOptions options;
  options.workers = kFleetWorkers;
  options.poll_ms = kFleetPollMs;
  options.work_dir = config.work_dir;
  options.worker_bin = config.worker_bin;
  options.worker_args = {"--threads", "1"};
  options.worker_perf = true;  // engine counters come from worker sidecars
  options.transport = &transport;

  std::string error;
  std::optional<DispatchResult> result;
  const std::uint64_t t_call = now_ns();
  {
    Scope scope(&tracer, "dispatch.run", "dispatch");
    result = run_dispatch(grid, options, &error);
  }
  const std::uint64_t t_ret = now_ns();
  auto remove_batch_files = [&](std::uint64_t batches) {
    for (std::uint64_t id = 0; id < batches; ++id) {
      const std::string base =
          config.work_dir + "/batch-" + std::to_string(id);
      for (const char* suffix :
           {".spec.json", ".report.json", ".ckpt.jsonl", ".perf.json"}) {
        std::remove((base + suffix).c_str());
      }
    }
  };
  if (!result) {
    r.error = "run_dispatch: " + error;
    remove_batch_files(transport.spawns());
    return r;
  }
  const ccd::obs::PerfDispatch& stats = result->stats;
  Reports reports;
  if (!emit_reports(&tracer, out_dir, result->merged.grid,
                    result->merged.cells, reports, r)) {
    return r;
  }
  const std::uint64_t t_end = now_ns();
  hash_reports(reports, r);
  r.cpu_s = cpu_seconds() - cpu0;
  remove_batch_files(stats.batches);

  if (result->perf) {
    r.counters = result->perf->counters;
  } else {
    r.error = "no worker perf sidecar survived the dispatch";
  }
  r.wall_s = seconds(t_end - t0);

  {
    LayerMetrics& l = layers;
    l["dispatch.wall_s"] = seconds(t_ret - t_call);
    l["dispatch.batches"] = static_cast<double>(stats.batches);
    l["dispatch.steals"] = static_cast<double>(stats.steals);
    l["dispatch.requeues"] = static_cast<double>(stats.requeues);
    l["dispatch.duplicate_cells"] = static_cast<double>(stats.duplicate_cells);
    const double cells = static_cast<double>(grid.num_cells());
    l["dispatch.useful_ratio"] =
        cells / (cells + static_cast<double>(stats.duplicate_cells));
    double permille = 0, idle_ns = 0;
    for (const ccd::obs::PerfDispatchSlot& slot : stats.slots) {
      permille += static_cast<double>(slot.busy_permille);
      idle_ns += static_cast<double>(stats.wall_ns) -
                 static_cast<double>(std::min(slot.busy_ns, stats.wall_ns));
    }
    l["dispatch.busy_permille"] =
        stats.slots.empty() ? 0.0
                            : permille / static_cast<double>(stats.slots.size());
    l["dispatch.idle_s"] = idle_ns * 1e-9;
    l["dispatch.merge_tail_s"] =
        seconds(t_ret - t_call) - seconds(stats.wall_ns);
    l["self.dispatch_s"] = tracer.self_seconds()["dispatch"];
  }
  return r;
}

// ---- probes -----------------------------------------------------------------

void topology_probe(const Artifacts& artifacts, Tracer& tracer,
                    LayerMetrics& layers) {
  using namespace ccd::exp;
  Scope scope(&tracer, "topology.probe", "topology");
  std::uint64_t build_ns = 0, diameter_ns = 0, builds = 0;
  std::set<std::pair<std::size_t, std::uint64_t>> distinct;
  auto build = [&](const ScenarioSpec& spec, bool diameter) {
    const std::uint64_t t0 = now_ns();
    const ccd::Topology topo = WorldFactory::make_topology(spec);
    const std::uint64_t t1 = now_ns();
    build_ns += t1 - t0;
    ++builds;
    if (diameter) {
      static_cast<void>(topo.diameter());
      diameter_ns += now_ns() - t1;
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < topo.size(); ++i) {
      for (std::uint32_t v : topo.neighbors(i)) {
        h = (h ^ (v + 1)) * 0x100000001b3ull;
      }
      h = (h ^ 0xffffffffull) * 0x100000001b3ull;
    }
    distinct.insert({topo.size(), h});
  };
  // The graphs the executed path builds: one per lane block (the block
  // shares its head's graph), one per scalar run off the single-hop
  // consensus path.  Diameter is taken wherever the engine takes it.
  const SweepGrid& grid = artifacts.grid;
  for (const Block& blk : artifacts.plan.blocks) {
    const ScenarioSpec spec = grid.spec_for_run(blk.first);
    const bool singlehop_consensus =
        spec.workload == WorkloadKind::kConsensus &&
        spec.topology == TopologyKind::kSingleHop;
    if (spec.workload == WorkloadKind::kRoundSync) continue;
    if (blk.count > 1) {
      build(spec, !singlehop_consensus);
    } else if (!singlehop_consensus) {
      for (std::size_t k = 0; k < blk.count; ++k) {
        build(grid.spec_for_run(blk.first + k), true);
      }
    }
  }
  layers["topology.build_s"] = seconds(build_ns);
  layers["topology.diameter_s"] = seconds(diameter_ns);
  layers["topology.builds"] = static_cast<double>(builds);
  layers["topology.unique_ratio"] =
      builds > 0 ? static_cast<double>(distinct.size()) /
                       static_cast<double>(builds)
                 : 0.0;
}

void factory_probe(const Artifacts& artifacts, Tracer& tracer,
                   LayerMetrics& layers) {
  using namespace ccd::exp;
  Scope scope(&tracer, "factory.probe", "world_factory");
  std::uint64_t make_ns = 0;
  auto make = [&](const ScenarioSpec& spec) {
    const std::uint64_t t0 = now_ns();
    const ccd::World world = WorldFactory::make(spec);
    make_ns += now_ns() - t0;
  };
  const SweepGrid& grid = artifacts.grid;
  for (std::size_t i = 0; i < grid.num_runs(); ++i) {
    const ScenarioSpec spec = grid.spec_for_run(i);
    if (spec.workload == WorkloadKind::kConsensus) {
      make(spec);
    } else if (spec.workload == WorkloadKind::kMisThenConsensus &&
               i < artifacts.records.size()) {
      // Phase 2 builds a consensus world over the surviving heads.
      const MultihopSummary& mh = artifacts.records[i].mh;
      if (mh.ran && !mh.phase2_skipped && mh.mis_size > 0) {
        make(WorldFactory::phase2_spec(
            spec, static_cast<std::uint32_t>(mh.mis_size)));
      }
    }
  }
  layers["factory.make_s"] = seconds(make_ns);
}

std::vector<std::vector<std::size_t>> fleet_split(std::size_t cells) {
  std::vector<std::vector<std::size_t>> split;
  for (std::size_t next = 0; next < cells;) {
    const std::size_t want =
        ccd::exp::next_batch_size(cells - next, kFleetWorkers);
    std::vector<std::size_t> batch;
    for (std::size_t c = next; c < std::min(cells, next + want); ++c) {
      batch.push_back(c);
    }
    next += batch.size();
    split.push_back(std::move(batch));
  }
  return split;
}

bool shard_probe(const Artifacts& artifacts, Tracer& tracer,
                 LayerMetrics& layers, std::string* error) {
  using namespace ccd::exp;
  const SweepGrid& grid = artifacts.grid;
  const std::vector<std::vector<std::size_t>> split =
      fleet_split(artifacts.cells.size());
  std::vector<ShardReport> reports;
  reports.reserve(split.size());
  for (std::size_t b = 0; b < split.size(); ++b) {
    ShardReport report;
    report.shard = ShardPlanner::plan_cells(grid, split[b], b);
    for (std::size_t c : split[b]) report.cells.push_back(artifacts.cells[c]);
    reports.push_back(std::move(report));
  }
  std::vector<std::string> texts;
  std::uint64_t bytes = 0;
  {
    Scope scope(&tracer, "shard.encode", "shard");
    for (const ShardReport& report : reports) {
      texts.push_back(report.to_json());
      bytes += texts.back().size();
    }
  }
  reports.clear();
  std::optional<MergeResult> merged;
  std::string merge_error;
  {
    Scope scope(&tracer, "shard.merge", "shard");
    std::vector<ShardReport> decoded;
    decoded.reserve(texts.size());
    for (const std::string& text : texts) {
      auto report = ShardReport::from_json(text, &merge_error);
      if (!report) break;
      decoded.push_back(std::move(*report));
    }
    if (decoded.size() == texts.size()) {
      merged = merge_shard_reports(decoded, &merge_error);
    }
  }
  layers["shard.encode_s"] = tracer.total_seconds("shard.encode");
  layers["shard.merge_s"] = tracer.total_seconds("shard.merge");
  layers["shard.bytes"] = static_cast<double>(bytes);
  if (!merged) {
    if (error) *error = "shard merge failed: " + merge_error;
    return false;
  }
  if (fnv1a(aggregates_to_json(merged->grid, merged->cells)) !=
      artifacts.json_hash) {
    if (error) *error = "merged shard reports differ from the JSON report";
    return false;
  }
  return true;
}

// ---- metric tables ----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"report_wall_s", "s"}, {"runs_per_s", "1/s"}, {"rounds_per_s", "1/s"},
      {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"cpu_s", "s"},
  };
  return kUnits;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"grid.plan_s", "s"},
      {"sweep.blocks", "count"},
      {"sweep.lane_fill", "ratio"},
      {"sweep.laned_fraction", "ratio"},
      {"topology.build_s", "s"},
      {"topology.diameter_s", "s"},
      {"topology.builds", "count"},
      {"topology.unique_ratio", "ratio"},
      {"factory.make_s", "s"},
      {"engine.lane_s", "s"},
      {"engine.scalar_s", "s"},
      {"engine.ns_per_round", "ns"},
      {"engine.rounds", "count"},
      {"engine.messages_sent", "count"},
      {"engine.messages_delivered", "count"},
      {"engine.collisions", "count"},
      {"engine.cm_advice_calls", "count"},
      {"engine.cd_advice_calls", "count"},
      {"engine.crashes", "count"},
      {"aggregator.fold_s", "s"},
      {"aggregator.stats_bytes", "bytes"},
      {"report.json_s", "s"},
      {"report.csv_s", "s"},
      {"report.dist_s", "s"},
      {"report.bytes", "bytes"},
      {"shard.encode_s", "s"},
      {"shard.merge_s", "s"},
      {"shard.bytes", "bytes"},
      {"dispatch.wall_s", "s"},
      {"dispatch.batches", "count"},
      {"dispatch.steals", "count"},
      {"dispatch.requeues", "count"},
      {"dispatch.duplicate_cells", "count"},
      {"dispatch.useful_ratio", "ratio"},
      {"dispatch.busy_permille", "permille"},
      {"dispatch.idle_s", "s"},
      {"dispatch.merge_tail_s", "s"},
      {"self.sweep_grid_s", "s"},
      {"self.sweep_runner_s", "s"},
      {"self.engine_s", "s"},
      {"self.aggregator_s", "s"},
      {"self.report_s", "s"},
      {"self.dispatch_s", "s"},
      {"trace.span_coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kUnits;
}

}  // namespace perfbench
