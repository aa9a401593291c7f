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
/// structure (one graph shape and size, one round budget).
[[maybe_unused]] bool block_is_uniform(const std::vector<ScenarioSpec>& s) {
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (s[k].workload != s[0].workload || s[k].topology != s[0].topology ||
        s[k].n != s[0].n) {
      return false;
    }
  }
  return true;
}

/// A world's graph with its diameter (0 when disconnected).  Single-hop
/// consensus has none: kGlobal reads no graph and reports no graph
/// metrics.
struct Graph {
  std::shared_ptr<const Topology> topology;
  std::uint32_t diameter = 0;
  bool connected = false;
};

Graph build_graph(const ScenarioSpec& spec) {
  Graph g{std::make_shared<const Topology>(WorldFactory::make_topology(spec))};
  const std::uint32_t d = g.topology->diameter();
  g.connected = d != Topology::kUnreachable;
  g.diameter = g.connected ? d : 0;
  return g;
}

/// capture_log records rounds and views in the log.
EngineOptions engine_options(const RunScenarioOptions& options,
                             bool stop_when_all_decided) {
  return {options.capture_log, options.capture_log, stop_when_all_decided};
}

ScenarioOutcome run_consensus_world(const ScenarioSpec& spec,
                                    const Graph& graph,
                                    const RunScenarioOptions& options) {
  const bool singlehop = spec.topology == TopologyKind::kSingleHop;
  EngineWorld ew;
  ew.world = WorldFactory::make(spec);
  ew.topology = graph.topology;
  ew.channel = ChannelModel::kMatrix;
  ew.scope = singlehop ? CollisionScope::kGlobal : CollisionScope::kLocal;
  LaneEngine eng(std::move(ew), engine_options(options, true));
  // CST is read after construction so it reflects substituted neutral
  // components (same reason run_consensus reads it off the engine).
  const Round cst = eng.world().cst();
  const RunResult result = eng.run(WorldFactory::max_rounds(spec));
  ScenarioOutcome out;
  out.summary =
      summarize_consensus(cst, result, eng.log(), eng.world().initial_values);
  out.counters = eng.counters();
  if (options.capture_log) out.log = eng.log();
  if (!singlehop) {
    out.mh.ran = true;
    out.mh.connected = graph.connected;
    out.mh.diameter = graph.diameter;
    out.mh.rounds_executed = result.rounds_executed;
    out.mh.broadcasts = eng.total_broadcasts();
    out.mh.messages_per_node =
        spec.n > 0 ? static_cast<double>(eng.total_broadcasts()) /
                         static_cast<double>(spec.n)
                   : 0.0;
    out.mh.crashes_applied = eng.crashes_applied();
    out.mh.survivors = eng.num_alive();
  }
  return out;
}

/// Shared capture-channel (flood / MIS) assembly: the graph and diameter
/// (recorded in the outcome), then the processes, the spec's detector and
/// fault adversary, and the kMhLinkSalt link stream.
LaneEngine make_capture_engine(const ScenarioSpec& spec, const Graph& graph,
                               bool mis, ScenarioOutcome& out,
                               const RunScenarioOptions& options) {
  const Round budget = WorldFactory::multihop_max_rounds(spec);
  out.mh.ran = true;
  out.mh.connected = graph.connected;
  out.mh.diameter = graph.diameter;
  const std::size_t n = graph.topology->size();
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
  ew.topology = graph.topology;
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = WorldFactory::make_link(spec);
  ew.link_seed = WorldFactory::mh_link_seed(spec);
  return LaneEngine(std::move(ew), engine_options(options, false));
}

/// A finished capture run's totals, counters and (capture_log, n > 0) log.
void finish_mh(ScenarioOutcome& outcome, const LaneEngine& eng,
               const RunScenarioOptions& options) {
  MultihopSummary& out = outcome.mh;
  out.rounds_executed = eng.current_round();
  out.broadcasts = eng.total_broadcasts();
  out.messages_per_node =
      eng.size() > 0 ? static_cast<double>(eng.total_broadcasts()) /
                           static_cast<double>(eng.size())
                     : 0.0;
  out.crashes_applied = eng.crashes_applied();
  out.survivors = eng.num_alive();
  outcome.counters = eng.counters();
  if (options.capture_log && eng.size() > 0) outcome.log = eng.log();
}

ScenarioOutcome run_flood(const ScenarioSpec& spec, const Graph& graph,
                          const RunScenarioOptions& options) {
  ScenarioOutcome out;
  LaneEngine eng = make_capture_engine(spec, graph, /*mis=*/false, out,
                                       options);
  const Round budget = WorldFactory::multihop_max_rounds(spec);
  // Theorem 3 accounting: success criteria are judged against the
  // survivor set AFTER failures cease, so completion is only declared
  // once the adversary has no crashes pending.
  const Round quiesce = eng.world().fault->last_crash_round();
  for (Round r = 1; r <= budget && eng.size() > 0; ++r) {
    eng.step();
    // Coverage is over survivors: a copy held only by the dead serves
    // nobody.  A flood process is awake exactly while it holds the
    // message.
    out.mh.covered = eng.num_awake();
    if (eng.num_alive() > 0 && out.mh.covered == eng.num_alive() &&
        r >= quiesce) {
      out.mh.full_coverage_round = r;
      break;
    }
  }
  finish_mh(out, eng, options);
  return out;
}

/// `heads_out`, when non-null, receives the surviving clusterheads.
ScenarioOutcome run_mis(const ScenarioSpec& spec, const Graph& graph,
                        std::vector<bool>* heads_out,
                        const RunScenarioOptions& options) {
  ScenarioOutcome out;
  LaneEngine eng = make_capture_engine(spec, graph, /*mis=*/true, out,
                                       options);
  const Round budget = WorldFactory::multihop_max_rounds(spec);
  const Round quiesce = eng.world().fault->last_crash_round();
  const std::size_t n = eng.size();
  auto mis_process = [&eng](std::size_t i) -> const MisProcess& {
    return static_cast<const MisProcess&>(eng.process(i));
  };
  for (Round r = 1; r <= budget && n > 0; ++r) {
    eng.step();
    // Settlement over survivors, only after failures cease: a crash can
    // un-dominate a node.
    bool all_settled = true;
    for (std::size_t i = 0; i < n && all_settled; ++i) {
      all_settled = !eng.alive(i) || mis_process(i).settled();
    }
    if (all_settled && r >= quiesce) {
      out.mh.mis_settle_round = r;
      break;
    }
  }
  MultihopSummary& mh = out.mh;
  const Topology& topo = eng.topology();
  // Heads and the independence/maximality verdicts are conditioned on the
  // surviving subgraph.
  std::vector<bool> heads(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    heads[i] = eng.alive(i) &&
               mis_process(i).state() == MisProcess::State::kHead;
    if (heads[i]) ++mh.mis_size;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!eng.alive(i)) continue;
    if (heads[i]) {
      for (std::uint32_t j : topo.neighbors(i)) {
        if (heads[j]) mh.mis_independent = false;
      }
    } else {
      bool dominated = false;
      for (std::uint32_t j : topo.neighbors(i)) {
        if (heads[j]) dominated = true;
      }
      if (!dominated) mh.mis_maximal = false;
    }
  }
  finish_mh(out, eng, options);
  if (heads_out) *heads_out = std::move(heads);
  return out;
}

ScenarioOutcome run_world(const ScenarioSpec& spec, const Graph& graph,
                          const RunScenarioOptions& options) {
  switch (spec.workload) {
    case WorkloadKind::kConsensus:
      return run_consensus_world(spec, graph, options);
    case WorkloadKind::kFlood:
      return run_flood(spec, graph, options);
    case WorkloadKind::kMis:
      return run_mis(spec, graph, nullptr, options);
    case WorkloadKind::kMisThenConsensus: {
      std::vector<bool> heads;
      ScenarioOutcome out = run_mis(spec, graph, &heads, options);
      // Phase 2: the surviving clusterheads form a single-hop backbone
      // running the spec's consensus stack (see phase2_spec); the head
      // count k fixes its n.
      std::size_t k = 0;
      for (bool h : heads) k += h;
      if (k == 0) {
        out.mh.phase2_skipped = true;
        return out;
      }
      ScenarioOutcome phase2 = run_consensus_world(
          WorldFactory::phase2_spec(spec, static_cast<std::uint32_t>(k)), {},
          options);
      out.summary = phase2.summary;
      out.counters.add(phase2.counters);
      out.phase2_log = std::move(phase2.log);
      return out;
    }
    case WorkloadKind::kRoundSync:
      break;  // excluded by eligible(); unreachable from SweepRunner
  }
  return {};
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
  // A random-geometric graph is drawn from each seed; every other shape is
  // the same for the whole block, so it and its diameter are built once.
  const ScenarioSpec& head = specs[0];
  const bool graphless = head.workload == WorkloadKind::kConsensus &&
                         head.topology == TopologyKind::kSingleHop;
  const bool per_seed = head.topology == TopologyKind::kRandomGeometric;
  Graph shared;
  if (!graphless && !per_seed) shared = build_graph(head);
  std::vector<ScenarioOutcome> outs;
  outs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    outs.push_back(run_world(
        spec, graphless || !per_seed ? shared : build_graph(spec), options));
  }
  return outs;
}

}  // namespace ccd::exp
