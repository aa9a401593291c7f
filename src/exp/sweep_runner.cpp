#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <thread>

#include "engine/lane_engine.hpp"
#include "exp/lane_executor.hpp"
#include "exp/world_factory.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp {

RunRecord run_one(const SweepGrid& grid, std::size_t run_index) {
  RunRecord record;
  record.run_index = run_index;
  record.cell_index = grid.cell_of_run(run_index);
  record.spec = grid.spec_for_run(run_index);
  obs::RunTimer timer;
  ScenarioOutcome outcome = WorldFactory::run_scenario(record.spec);
  record.perf.wall_ns = timer.elapsed_ns();
  record.perf.engine = outcome.counters;
  record.summary = std::move(outcome.summary);
  record.mh = std::move(outcome.mh);
  record.sync = outcome.sync;
  return record;
}

namespace {

/// Shared pool core: workers claim BLOCKS of slots and execute run
/// index_of(j) for each slot j in the block.  Results land in the slot
/// owned by j, so the returned vector's order is the caller's index order
/// regardless of scheduling.
///
/// With options.lanes, a block is a maximal run of consecutive slots whose
/// GLOBAL run indices are consecutive within one lane-eligible cell (up to
/// kLaneWidth of them) -- those execute in lockstep through one
/// LaneExecutor::run_block.  Everything else (round-sync, strided shard
/// index sets, the S mod 64 cell remainder when it lands alone) is a
/// 1-run block through run_one.  The partition only affects scheduling
/// granularity; record CONTENT is byte-identical either way.
template <typename IndexOf>
std::vector<RunRecord> run_pool(const SweepGrid& grid, std::size_t total,
                                const SweepOptions& options,
                                IndexOf index_of) {
  std::vector<RunRecord> records(total);
  if (total == 0) {
    if (options.perf) *options.perf = obs::SweepPerf{};
    return records;
  }

  struct Block {
    std::size_t first = 0;
    std::size_t count = 1;
  };
  std::vector<Block> blocks;
  blocks.reserve(options.lanes ? total / kLaneWidth + 1 : total);
  for (std::size_t j = 0; j < total;) {
    const std::size_t idx = index_of(j);
    std::size_t count = 1;
    if (options.lanes && LaneExecutor::eligible(grid.spec_for_run(idx))) {
      const std::size_t cell = grid.cell_of_run(idx);
      while (count < kLaneWidth && j + count < total &&
             index_of(j + count) == idx + count &&
             grid.cell_of_run(idx + count) == cell) {
        ++count;
      }
    }
    blocks.push_back({j, count});
    j += count;
  }

  unsigned threads = options.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, blocks.size()));

  // One epoch for the whole pool; spans and finish times are offsets into
  // it, so a Chrome trace of the spans lines workers up on a shared axis.
  obs::RunTimer epoch;
  if (options.perf) {
    *options.perf = obs::SweepPerf{};
    options.perf->spans.resize(total);
  }
  std::vector<std::uint64_t> worker_finish(threads, 0);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  auto worker = [&](unsigned worker_id) {
    obs::Telemetry::Sink& sink = obs::Telemetry::thread_sink();
    while (true) {
      const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks.size()) break;
      const Block& blk = blocks[b];
      const std::uint64_t start_ns =
          options.perf ? epoch.elapsed_ns() : 0;
      if (blk.count == 1) {
        records[blk.first] = run_one(grid, index_of(blk.first));
      } else {
        std::vector<ScenarioSpec> specs(blk.count);
        for (std::size_t k = 0; k < blk.count; ++k) {
          RunRecord& rec = records[blk.first + k];
          rec.run_index = index_of(blk.first + k);
          rec.cell_index = grid.cell_of_run(rec.run_index);
          rec.spec = grid.spec_for_run(rec.run_index);
          specs[k] = rec.spec;
        }
        obs::RunTimer timer;
        std::vector<ScenarioOutcome> outcomes =
            LaneExecutor::run_block(specs);
        // Per-run wall time is observational only (sidecar percentiles);
        // the honest per-run figure for a lockstep block is the amortized
        // cost.
        const std::uint64_t wall_each = timer.elapsed_ns() / blk.count;
        for (std::size_t k = 0; k < blk.count; ++k) {
          RunRecord& rec = records[blk.first + k];
          rec.summary = std::move(outcomes[k].summary);
          rec.mh = std::move(outcomes[k].mh);
          rec.sync = outcomes[k].sync;
          rec.perf.engine = outcomes[k].counters;
          rec.perf.wall_ns = wall_each;
        }
      }
      const std::uint64_t end_ns = options.perf ? epoch.elapsed_ns() : 0;
      for (std::size_t k = 0; k < blk.count; ++k) {
        RunRecord& rec = records[blk.first + k];
        rec.perf.worker = worker_id;
        sink.add_engine(rec.perf.engine);
        sink.add(obs::Counter::kRunsExecuted, 1);
        if (options.perf) {
          obs::RunSpan& span = options.perf->spans[blk.first + k];
          span.run_index = rec.run_index;
          span.cell_index = rec.cell_index;
          span.worker = worker_id;
          span.start_ns = start_ns;
          span.end_ns = end_ns;
        }
        if (options.on_record) options.on_record(rec);
        const std::size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.progress) options.progress(finished, total);
      }
    }
    worker_finish[worker_id] = epoch.elapsed_ns();
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  if (options.perf) {
    obs::SweepPerf& perf = *options.perf;
    perf.wall_ns = epoch.elapsed_ns();
    perf.threads = threads;
    perf.runs = total;
    const std::uint64_t earliest =
        *std::min_element(worker_finish.begin(), worker_finish.end());
    perf.drain_ns = perf.wall_ns > earliest ? perf.wall_ns - earliest : 0;
    // Slot order makes the counter sum independent of scheduling; the
    // totals equal any shard partition's totals summed (they are a pure
    // function of the specs executed).
    for (const RunRecord& record : records)
      perf.counters.add(record.perf.engine);
  }
  return records;
}

}  // namespace

std::vector<RunRecord> run_sweep(const SweepGrid& grid,
                                 const SweepOptions& options) {
  return run_pool(grid, grid.num_runs(), options,
                  [](std::size_t j) { return j; });
}

std::vector<RunRecord> run_subset(const SweepGrid& grid,
                                  const std::vector<std::size_t>& run_indices,
                                  const SweepOptions& options) {
  return run_pool(grid, run_indices.size(), options,
                  [&](std::size_t j) { return run_indices[j]; });
}

}  // namespace ccd::exp
