#include "exp/dispatch/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "exp/shard/checkpoint.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp {

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// One spec handed to one worker process.  Retired when the process exits;
/// a steal re-queues cells but the assignment (and its worker) lives on --
/// first completed copy wins.
struct Assignment {
  std::size_t id = 0;
  CheckpointReader checkpoint;  ///< the worker's one output; owns the spec
  std::uint64_t spawn_wall_ms = 0;  ///< heartbeat floor before first write
  std::uint64_t start_ns = 0;       ///< dispatcher-clock spawn instant
  bool stolen = false;              ///< at most one steal per assignment
};

struct Slot {
  int handle = -1;  ///< transport handle, -1 = idle
  std::optional<Assignment> batch;
  obs::PerfDispatchSlot totals;  ///< slot and busy_permille set at the end
};

/// A ledger entry's keys in the ledger JSON, in order.
constexpr std::tuple kLedgerFields{
    jsonu::UintMember{"cell", &DispatchLedgerEntry::cell},
    jsonu::UintMember{"batch", &DispatchLedgerEntry::batch_id},
    jsonu::UintMember{"slot", &DispatchLedgerEntry::slot}};

}  // namespace

std::size_t next_batch_size(std::size_t pending, std::size_t workers) {
  if (workers == 0) workers = 1;
  const std::size_t size = pending / (2 * workers);
  return size > 0 ? size : 1;
}

std::string ledger_to_json(const std::vector<DispatchLedgerEntry>& ledger) {
  std::string out = "{\"format\":\"ccd-dispatch-ledger-v1\",\"cells\":[";
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    if (i > 0) out += ',';
    jsonu::open_object(out, ledger[i], kLedgerFields);
    out += '}';
  }
  out += "]}";
  return out;
}

std::optional<DispatchResult> run_dispatch(const SweepGrid& grid,
                                           const DispatchOptions& options,
                                           std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<DispatchResult> {
    if (error) *error = message;
    return std::nullopt;
  };
  const std::size_t n = grid.num_cells();
  if (n == 0) return fail("grid has no cells to dispatch");
  if (grid.seeds_per_cell == 0) {
    return fail("grid has seeds_per_cell 0: no runs to execute");
  }
  if (options.workers == 0) return fail("need at least one worker slot");
  if (options.worker_bin.empty()) return fail("no worker binary configured");
  if (options.work_dir.empty()) return fail("no work directory configured");

  LocalProcessTransport local_transport;
  WorkerTransport* transport =
      options.transport ? options.transport : &local_transport;

  // Queue + cell bookkeeping.  A cell can be queued AND assigned at once
  // (that is what a steal is); `queued` and `live` keep the two states
  // separate so a cell is never queued twice.
  std::deque<std::size_t> pending;
  for (std::size_t c = 0; c < n; ++c) pending.push_back(c);
  std::vector<std::uint8_t> queued(n, 1), done(n, 0);
  std::vector<std::size_t> live(n, 0), assigned_times(n, 0);
  std::map<std::size_t, CellAggregate> won_cells;
  std::vector<DispatchLedgerEntry> ledger(n);

  std::vector<Slot> slots(options.workers);
  obs::PerfDispatch stats;
  stats.workers = options.workers;
  std::size_t completed = 0;
  std::size_t next_batch_id = 0;
  std::vector<std::string> perf_path_by_batch;
  obs::RunTimer timer;
  const auto stale_ms =
      static_cast<std::uint64_t>(options.stale_after_secs * 1000.0);

  auto cleanup = [&]() {
    for (Slot& slot : slots) {
      if (slot.handle != -1) transport->kill_worker(slot.handle);
    }
  };
  auto requeue_cell = [&](std::size_t c) {
    if (done[c] || queued[c]) return false;
    pending.push_front(c);
    queued[c] = 1;
    return true;
  };
  auto adopt = [&](std::size_t c, CellAggregate cell, std::size_t batch_id,
                   std::uint32_t slot_index) {
    if (done[c]) {
      ++stats.duplicate_cells;  // a stolen copy finished second: discard
      return;
    }
    done[c] = 1;
    ++completed;
    won_cells[c] = std::move(cell);
    ledger[c] = DispatchLedgerEntry{c, batch_id, slot_index};
    ++slots[slot_index].totals.cells;
  };

  while (completed < n) {
    bool worked = false;

    // 1. Hand out batches to idle slots.  Size decays with the queue so
    // the tail is fine-grained where stealing matters.
    for (std::uint32_t si = 0; si < slots.size(); ++si) {
      if (pending.empty()) break;
      Slot& slot = slots[si];
      if (slot.handle != -1) continue;
      std::vector<std::size_t> cells;
      const std::size_t want = next_batch_size(pending.size(), slots.size());
      while (cells.size() < want && !pending.empty()) {
        const std::size_t c = pending.front();
        pending.pop_front();
        queued[c] = 0;
        if (done[c]) continue;  // stale owner finished it while queued
        if (++assigned_times[c] > options.max_assignments_per_cell) {
          cleanup();
          return fail("cell " + std::to_string(c) + " was assigned " +
                      std::to_string(options.max_assignments_per_cell) +
                      " times without completing (worker binary failing "
                      "deterministically on it?)");
        }
        cells.push_back(c);
      }
      if (cells.empty()) continue;
      std::sort(cells.begin(), cells.end());  // requeues arrive unsorted

      const std::size_t id = next_batch_id++;
      const std::string base =
          options.work_dir + "/batch-" + std::to_string(id);
      const std::string spec_path = base + ".spec.json";
      const std::string ckpt_path = base + ".ckpt.jsonl";
      ShardSpec spec = ShardPlanner::plan_cells(grid, cells, id);
      if (!write_file(spec_path, spec.to_json() + "\n")) {
        cleanup();
        return fail("cannot write shard spec " + spec_path);
      }
      Assignment a{id, CheckpointReader(std::move(spec), ckpt_path)};
      std::vector<std::string> argv = {options.worker_bin, "--shard-file",
                                       spec_path,          "--checkpoint",
                                       ckpt_path,          "--quiet"};
      std::string perf_path;
      if (options.worker_perf) {
        perf_path = base + ".perf.json";
        argv.push_back("--perf-out");
        argv.push_back(perf_path);
      }
      perf_path_by_batch.push_back(perf_path);
      for (const std::string& arg : options.worker_args) argv.push_back(arg);
      std::vector<std::string> env = {"CCD_DISPATCH_WORKER=" +
                                      std::to_string(si)};
      if (si < options.worker_env.size()) {
        for (const std::string& kv : options.worker_env[si]) {
          env.push_back(kv);
        }
      }
      for (std::size_t c : cells) ++live[c];
      a.spawn_wall_ms = obs::wall_clock_ms();
      a.start_ns = timer.elapsed_ns();
      const int handle = transport->spawn(argv, env);
      if (handle < 0) {
        cleanup();
        return fail("cannot spawn worker '" + options.worker_bin +
                    "' for batch " + std::to_string(a.id));
      }
      slot.handle = handle;
      slot.batch = std::move(a);
      ++slot.totals.batches;
      ++stats.batches;
      worked = true;
    }

    // 2. Poll running workers: read each one's new checkpoint lines, steal
    // from stale ones, adopt what exited ones finished and requeue the
    // rest.
    for (std::uint32_t si = 0; si < slots.size(); ++si) {
      Slot& slot = slots[si];
      if (slot.handle == -1) continue;
      Assignment& a = *slot.batch;
      const std::vector<std::size_t>& cells = a.checkpoint.shard().cells;
      const WorkerStatus status = transport->poll(slot.handle);
      // Read after the poll: once the worker has exited, every line it
      // wrote is in the file.
      const bool usable = a.checkpoint.read();

      if (status.running) {
        const std::uint64_t last =
            std::max(a.checkpoint.last_ts_ms(), a.spawn_wall_ms);
        const std::uint64_t now = obs::wall_clock_ms();
        if (!a.stolen && now > last && now - last > stale_ms) {
          // Steal: re-queue the unfinished cells but leave the laggard
          // running -- it may still win some of them.
          a.stolen = true;
          std::size_t stolen_cells = 0;
          for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
            if (a.checkpoint.cells().count(*it)) continue;
            if (requeue_cell(*it)) ++stolen_cells;
          }
          stats.steals += stolen_cells;
          worked = worked || stolen_cells > 0;
        }
        continue;
      }

      // Worker exited: adopt every cell its stream holds (an unusable
      // stream holds none).  Anything short of a clean exit with the whole
      // batch read is a restart.
      slot.totals.busy_ns += timer.elapsed_ns() - a.start_ns;
      if (status.exit_code != 0 || !usable ||
          a.checkpoint.cells().size() < cells.size()) {
        ++slot.totals.restarts;
        ++stats.worker_restarts;
      }
      for (auto& [c, cell] : a.checkpoint.take_cells()) {
        adopt(c, std::move(cell), a.id, si);
      }
      std::size_t requeued = 0;
      for (std::size_t c : cells) --live[c];
      for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
        const std::size_t c = *it;
        if (live[c] > 0) continue;  // another (stolen) copy is in flight
        if (requeue_cell(c)) ++requeued;
      }
      stats.requeues += requeued;
      slot.handle = -1;
      slot.batch.reset();
      worked = true;
    }

    // Every cell must be somewhere: queued, in flight, or done.  Anything
    // else is a scheduler bug -- fail loudly instead of spinning forever.
    if (!worked && pending.empty() && completed < n) {
      bool any_busy = false;
      for (const Slot& slot : slots) any_busy = any_busy || slot.handle != -1;
      if (!any_busy) {
        cleanup();
        return fail("dispatch stalled with " +
                    std::to_string(n - completed) +
                    " cells unaccounted for (scheduler invariant broken)");
      }
    }

    if (options.progress) {
      options.progress(completed * grid.seeds_per_cell, grid.num_runs());
    }

    if (!worked && completed < n) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_ms));
    }
  }

  // Stolen stragglers may still be running: their cells are all won, so
  // hard-kill them (charging the busy time they consumed).
  for (Slot& slot : slots) {
    if (slot.handle == -1) continue;
    slot.totals.busy_ns += timer.elapsed_ns() - slot.batch->start_ns;
    transport->kill_worker(slot.handle);
    slot.handle = -1;
    slot.batch.reset();
  }
  stats.wall_ns = timer.elapsed_ns();
  for (std::uint32_t si = 0; si < slots.size(); ++si) {
    obs::PerfDispatchSlot& view = stats.slots.emplace_back(slots[si].totals);
    view.slot = si;
    view.busy_permille =
        stats.wall_ns > 0 ? view.busy_ns * 1000 / stats.wall_ns : 0;
  }

  // Ledger-pruned merge: one synthetic report per winning assignment, so
  // merge_shard_reports' exactly-once validation sees each cell once --
  // and would catch any ledger bug as a hard error.
  std::map<std::size_t, std::pair<std::uint32_t, std::vector<std::size_t>>>
      by_batch;  // batch id -> (slot, won cells ascending)
  for (std::size_t c = 0; c < n; ++c) {
    auto& entry = by_batch[ledger[c].batch_id];
    entry.first = ledger[c].slot;
    entry.second.push_back(c);
  }
  std::vector<ShardReport> reports;
  reports.reserve(by_batch.size());
  for (auto& [batch_id, entry] : by_batch) {
    ShardReport report;
    report.shard = ShardPlanner::plan_cells(grid, entry.second, batch_id);
    report.cells.reserve(entry.second.size());
    for (std::size_t c : entry.second) {
      report.cells.push_back(std::move(won_cells.at(c)));
    }
    reports.push_back(std::move(report));
  }
  std::string merge_error;
  auto merged = merge_shard_reports(reports, &merge_error);
  if (!merged) {
    return fail("ledger-pruned merge failed: " + merge_error);
  }

  DispatchResult result;
  result.merged = std::move(*merged);
  result.ledger = std::move(ledger);

  // Worker perf sidecars: prune each batch's cells to its ledger winners
  // (duplicate executions stay in the counter totals -- they really ran --
  // but a cell is timed once), then merge.  Observability must never fail
  // the dispatch: unreadable sidecars (crashed workers never write one)
  // are skipped.
  if (options.worker_perf) {
    std::vector<obs::PerfSidecar> sidecars;
    for (std::size_t id = 0; id < perf_path_by_batch.size(); ++id) {
      const std::string& path = perf_path_by_batch[id];
      if (path.empty()) continue;
      std::string text;
      if (!read_file(path, text)) continue;
      auto sidecar = obs::PerfSidecar::from_json(text);
      if (!sidecar) continue;
      std::vector<obs::PerfCell> kept;
      for (const obs::PerfCell& cell : sidecar->cells) {
        if (cell.cell_index < n &&
            result.ledger[cell.cell_index].batch_id == id) {
          kept.push_back(cell);
        }
      }
      sidecar->cells = std::move(kept);
      sidecars.push_back(std::move(*sidecar));
    }
    if (!sidecars.empty()) {
      if (auto perf = obs::merge_perf_sidecars(sidecars)) {
        perf->dispatch = stats;
        result.perf = std::move(*perf);
      }
    }
  }

  result.stats = std::move(stats);
  return result;
}

}  // namespace ccd::exp
