#include "exp/lane_executor.hpp"

#include <cassert>
#include <memory>

#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "multihop/flood.hpp"
#include "multihop/mis.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

/// Every spec in a block must agree on the axes that fix the execution
/// structure (one graph shape and size, one round budget, one lockstep
/// loop).
[[maybe_unused]] bool block_is_uniform(const std::vector<ScenarioSpec>& s) {
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (s[k].workload != s[0].workload || s[k].topology != s[0].topology ||
        s[k].n != s[0].n) {
      return false;
    }
  }
  return true;
}

/// A lane's graph with its diameter (0 when disconnected).
struct LaneGraph {
  std::shared_ptr<const Topology> topology;
  std::uint32_t diameter = 0;
  bool connected = false;
};

/// One graph per spec.  A random-geometric graph is drawn from the spec's
/// seed, so each lane builds its own; every other shape is the same for
/// all seeds and is built (and its diameter taken) once, every lane
/// sharing that one graph.  Single-hop consensus builds none: kGlobal reads
/// no graph and reports no graph metrics.
std::vector<LaneGraph> lane_graphs(const std::vector<ScenarioSpec>& specs) {
  auto build = [](const ScenarioSpec& spec) {
    LaneGraph g{
        std::make_shared<const Topology>(WorldFactory::make_topology(spec))};
    const std::uint32_t d = g.topology->diameter();
    g.connected = d != Topology::kUnreachable;
    g.diameter = g.connected ? d : 0;
    return g;
  };
  std::vector<LaneGraph> graphs;
  graphs.reserve(specs.size());
  if (specs[0].topology == TopologyKind::kRandomGeometric) {
    for (const ScenarioSpec& spec : specs) graphs.push_back(build(spec));
  } else {
    graphs.assign(specs.size(), build(specs[0]));
  }
  return graphs;
}

/// capture_log records rounds and views in every lane's log.
EngineOptions engine_options(const RunScenarioOptions& options,
                             bool stop_when_all_decided) {
  return {options.capture_log, options.capture_log, stop_when_all_decided};
}

void run_consensus_block(const std::vector<ScenarioSpec>& specs,
                         std::vector<ScenarioOutcome>& outs,
                         const RunScenarioOptions& options) {
  const ScenarioSpec& head = specs[0];
  const bool singlehop = head.topology == TopologyKind::kSingleHop;
  std::vector<LaneGraph> graphs;
  if (!singlehop) graphs = lane_graphs(specs);

  std::vector<EngineWorld> worlds;
  worlds.reserve(specs.size());
  for (std::size_t l = 0; l < specs.size(); ++l) {
    EngineWorld ew;
    ew.world = WorldFactory::make(specs[l]);
    if (!singlehop) ew.topology = std::move(graphs[l].topology);
    ew.channel = ChannelModel::kMatrix;
    ew.scope = singlehop ? CollisionScope::kGlobal : CollisionScope::kLocal;
    worlds.push_back(std::move(ew));
  }
  LaneEngine eng(std::move(worlds), engine_options(options, true));
  // CST is read after construction so it reflects substituted neutral
  // components (same reason run_consensus reads it off the Executor).
  for (std::size_t l = 0; l < specs.size(); ++l) {
    outs[l].summary.cst = eng.world(l).cst();
  }
  eng.run(WorldFactory::max_rounds(head));
  for (std::size_t l = 0; l < specs.size(); ++l) {
    ScenarioOutcome& out = outs[l];
    out.summary = summarize_consensus(out.summary.cst, eng.result(l),
                                      eng.log(l), eng.world(l).initial_values);
    out.counters.add(eng.counters(l));
    if (options.capture_log) out.log = eng.log(l);
    if (!singlehop) {
      out.mh.ran = true;
      out.mh.connected = graphs[l].connected;
      out.mh.diameter = graphs[l].diameter;
      out.mh.rounds_executed = eng.result(l).rounds_executed;
      out.mh.broadcasts = eng.total_broadcasts(l);
      out.mh.messages_per_node =
          head.n > 0 ? static_cast<double>(eng.total_broadcasts(l)) /
                           static_cast<double>(head.n)
                     : 0.0;
      out.mh.crashes_applied = eng.crashes_applied(l);
      out.mh.survivors = eng.num_alive(l);
    }
  }
}

/// Shared capture-channel (flood / MIS) assembly: each lane's graph and
/// diameter (recorded in its outcome), then per lane its processes, the
/// spec's detector and fault adversary, and the kMhLinkSalt link stream.
LaneEngine make_capture_lanes(const std::vector<ScenarioSpec>& specs,
                              std::vector<ScenarioOutcome>& outs,
                              std::vector<Round>& quiesce, bool mis,
                              const RunScenarioOptions& options) {
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  std::vector<LaneGraph> graphs = lane_graphs(specs);
  for (std::size_t l = 0; l < specs.size(); ++l) {
    outs[l].mh.ran = true;
    outs[l].mh.connected = graphs[l].connected;
    outs[l].mh.diameter = graphs[l].diameter;
  }
  std::vector<EngineWorld> worlds;
  worlds.reserve(specs.size());
  quiesce.reserve(specs.size());
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const ScenarioSpec& spec = specs[l];
    const std::size_t n = graphs[l].topology->size();
    const std::uint64_t proc_base = WorldFactory::mh_proc_seed(spec);
    EngineWorld ew;
    ew.world.processes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seed =
          hash_mix(proc_base ^ static_cast<std::uint64_t>(i));
      if (mis) {
        MisProcess::Options o;
        o.seed = seed;
        ew.world.processes.push_back(std::make_unique<MisProcess>(o));
      } else {
        FloodProcess::Options o;
        o.is_source = i == 0;
        // Always CD-backoff: under a NoCD detector it degenerates to
        // fixed-probability flooding, so the detector axis itself carries
        // the with/without-collision-feedback contrast.
        o.policy = FloodPolicy::kCdBackoff;
        o.fresh_rounds = budget;
        o.seed = seed;
        ew.world.processes.push_back(std::make_unique<FloodProcess>(o));
      }
    }
    ew.world.cd = WorldFactory::make_detector(spec);
    ew.world.fault = WorldFactory::make_fault(spec);
    // Theorem 3 accounting: success criteria are judged against the
    // survivor set AFTER failures cease, so completion is only declared
    // once the adversary has no crashes pending.
    quiesce.push_back(ew.world.fault->last_crash_round());
    ew.topology = std::move(graphs[l].topology);
    ew.channel = ChannelModel::kCapture;
    ew.scope = CollisionScope::kLocal;
    ew.link = WorldFactory::make_link(spec);
    ew.link_seed = WorldFactory::mh_link_seed(spec);
    worlds.push_back(std::move(ew));
  }
  return LaneEngine(std::move(worlds), engine_options(options, false));
}

/// A retired capture lane's run totals, counters and (capture_log, n > 0)
/// log.
void finish_mh(ScenarioOutcome& outcome, const LaneEngine& eng, std::size_t l,
               const RunScenarioOptions& options) {
  MultihopSummary& out = outcome.mh;
  out.rounds_executed = eng.result(l).rounds_executed;
  out.broadcasts = eng.total_broadcasts(l);
  out.messages_per_node =
      eng.size() > 0 ? static_cast<double>(eng.total_broadcasts(l)) /
                           static_cast<double>(eng.size())
                     : 0.0;
  out.crashes_applied = eng.crashes_applied(l);
  out.survivors = eng.num_alive(l);
  outcome.counters.add(eng.counters(l));
  if (options.capture_log && eng.size() > 0) outcome.log = eng.log(l);
}

void run_flood_block(const std::vector<ScenarioSpec>& specs,
                     std::vector<ScenarioOutcome>& outs,
                     const RunScenarioOptions& options) {
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  std::vector<Round> quiesce;
  LaneEngine eng =
      make_capture_lanes(specs, outs, quiesce, /*mis=*/false, options);
  for (Round r = 1; r <= budget && eng.active_mask(); ++r) {
    eng.step();
    for (std::size_t l = 0; l < specs.size(); ++l) {
      if (!eng.lane_active(l)) continue;
      // Coverage is over survivors: a copy held only by the dead serves
      // nobody.  A flood process is awake exactly while it holds the
      // message.
      const std::size_t covered = eng.num_awake(l);
      outs[l].mh.covered = covered;
      if (eng.num_alive(l) > 0 && covered == eng.num_alive(l) &&
          r >= quiesce[l]) {
        outs[l].mh.full_coverage_round = r;
        eng.retire(l);
      }
    }
  }
  for (std::size_t l = 0; l < specs.size(); ++l) {
    if (eng.lane_active(l)) eng.retire(l);
    finish_mh(outs[l], eng, l, options);
  }
}

void run_mis_block(const std::vector<ScenarioSpec>& specs,
                   std::vector<ScenarioOutcome>& outs,
                   std::vector<std::vector<bool>>* heads_out,
                   const RunScenarioOptions& options) {
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  std::vector<Round> quiesce;
  LaneEngine eng =
      make_capture_lanes(specs, outs, quiesce, /*mis=*/true, options);
  const std::size_t n = eng.size();
  for (Round r = 1; r <= budget && eng.active_mask(); ++r) {
    eng.step();
    for (std::size_t l = 0; l < specs.size(); ++l) {
      if (!eng.lane_active(l)) continue;
      // Settlement over survivors, only after failures cease: a crash can
      // un-dominate a node.
      bool all_settled = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (eng.alive(l, i) &&
            !static_cast<MisProcess&>(eng.process(l, i)).settled()) {
          all_settled = false;
          break;
        }
      }
      if (all_settled && r >= quiesce[l]) {
        outs[l].mh.mis_settle_round = r;
        eng.retire(l);
      }
    }
  }
  if (heads_out) heads_out->resize(specs.size());
  for (std::size_t l = 0; l < specs.size(); ++l) {
    if (eng.lane_active(l)) eng.retire(l);
    MultihopSummary& out = outs[l].mh;
    const Topology& topo = eng.topology(l);
    // Heads and the independence/maximality verdicts are conditioned on
    // the surviving subgraph.
    std::vector<bool> heads(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      heads[i] = eng.alive(l, i) &&
                 static_cast<MisProcess&>(eng.process(l, i)).state() ==
                     MisProcess::State::kHead;
      if (heads[i]) ++out.mis_size;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!eng.alive(l, i)) continue;
      if (heads[i]) {
        for (std::uint32_t j : topo.neighbors(i)) {
          if (heads[j]) out.mis_independent = false;
        }
      } else {
        bool dominated = false;
        for (std::uint32_t j : topo.neighbors(i)) {
          if (heads[j]) dominated = true;
        }
        if (!dominated) out.mis_maximal = false;
      }
    }
    finish_mh(outs[l], eng, l, options);
    if (heads_out) (*heads_out)[l] = std::move(heads);
  }
}

}  // namespace

bool LaneExecutor::eligible(const ScenarioSpec& spec,
                            const RunScenarioOptions&) {
  // Round-sync sits below the round abstraction entirely.
  return spec.workload != WorkloadKind::kRoundSync;
}

std::vector<ScenarioOutcome> LaneExecutor::run_block(
    const std::vector<ScenarioSpec>& specs,
    const RunScenarioOptions& options) {
  assert(!specs.empty() && specs.size() <= kLaneWidth);
  assert(block_is_uniform(specs));
  for ([[maybe_unused]] const ScenarioSpec& spec : specs) {
    assert(eligible(spec, options));
  }
  std::vector<ScenarioOutcome> outs(specs.size());
  switch (specs[0].workload) {
    case WorkloadKind::kConsensus:
      run_consensus_block(specs, outs, options);
      break;
    case WorkloadKind::kFlood:
      run_flood_block(specs, outs, options);
      break;
    case WorkloadKind::kMis:
      run_mis_block(specs, outs, nullptr, options);
      break;
    case WorkloadKind::kMisThenConsensus: {
      std::vector<std::vector<bool>> heads;
      run_mis_block(specs, outs, &heads, options);
      // Phase 2: each lane's surviving clusterheads form a single-hop
      // backbone running the spec's consensus stack (see phase2_spec).  The
      // head count k fixes n and is seed-dependent, so every lane's phase
      // 2 is a one-spec consensus block of its own.
      for (std::size_t l = 0; l < specs.size(); ++l) {
        std::size_t k = 0;
        for (bool h : heads[l]) k += h;
        if (k == 0) {
          outs[l].mh.phase2_skipped = true;
          continue;
        }
        const ScenarioSpec sub =
            WorldFactory::phase2_spec(specs[l], static_cast<std::uint32_t>(k));
        std::vector<ScenarioOutcome> phase2(1);
        run_consensus_block({sub}, phase2, options);
        outs[l].mh.consensus = phase2[0].summary;
        outs[l].summary = phase2[0].summary;
        outs[l].counters.add(phase2[0].counters);
        outs[l].phase2_log = std::move(phase2[0].log);
      }
      break;
    }
    case WorkloadKind::kRoundSync:
      break;  // excluded by eligible(); unreachable from SweepRunner
  }
  return outs;
}

}  // namespace ccd::exp
