// WorldFactory: materialize and execute a scenario (Definition 10's
// "system") from a ScenarioSpec.  This is the single place where algorithm
// / detector / contention-manager / adversary objects are constructed for
// experiments, and run_scenario() is the entry point that turns a spec
// into an execution: every workload but round-sync runs as a one-spec
// LaneExecutor block on the one topology-aware engine (LaneEngine).
//
//   workload   topology    channel            scope     engine world
//   ---------  ----------  -----------------  --------  -------------------
//   consensus  singlehop   kMatrix (loss adv) kGlobal   clique(n), the
//                                                       paper's model proper
//   consensus  any other   kMatrix (loss adv) kLocal    the SAME loss/cm/
//                                                       detector/fault stack
//                                                       over the graph
//   flood/mis/ any         kCapture (link     kLocal    Section 1.1 radio
//   mis-then-              physics)                     physics per
//   consensus                                           neighborhood
//   round-sync (none)      --                 --        below the round
//                                                       abstraction: the
//                                                       RBS synchronizer
//
// Determinism contract: everything stochastic in a produced engine derives
// from spec.seed through ONE hash_mix(seed ^ salt) stream discipline with
// fixed per-component salts (cm/cd/loss/fault/init/topo/proc/link/phase2/
// sync), so the same spec always yields the same execution -- independent
// of which thread of a sweep builds and runs it, and identical across the
// single-hop and multihop branches.
#pragma once

#include <memory>
#include <optional>

#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "exp/scenario_spec.hpp"
#include "model/process.hpp"
#include "sim/world.hpp"

namespace ccd::exp {

/// Result of one multihop workload run (flood / mis / mis-then-consensus,
/// plus topology-level metrics for consensus-over-a-graph runs).
struct MultihopSummary {
  bool ran = false;        ///< false for single-hop consensus records
  bool connected = false;
  std::uint32_t diameter = 0;  ///< hop diameter; valid iff connected
  Round rounds_executed = 0;   ///< multihop rounds (excludes phase 2)
  std::uint64_t broadcasts = 0;
  double messages_per_node = 0.0;

  // Crash-failure accounting (spec.fault over the multihop phase).
  std::uint64_t crashes_applied = 0;  ///< crashes the adversary landed
  std::size_t survivors = 0;          ///< processes alive at the end

  // Flood workload.  Coverage is conditioned on survivors: a message held
  // only by the dead does not count.
  std::size_t covered = 0;  ///< SURVIVING processes holding the message
  Round full_coverage_round = kNeverRound;  ///< all survivors covered

  // MIS workloads, conditioned on the surviving subgraph: heads are
  // surviving heads, independence is among survivors, and maximality asks
  // every surviving non-head for a surviving head neighbor.
  std::size_t mis_size = 0;
  Round mis_settle_round = kNeverRound;  ///< first round all survivors settled
  bool mis_independent = true;  ///< no two adjacent surviving heads
  bool mis_maximal = true;      ///< every survivor is a head or dominated

  /// mis-then-consensus only: the single-hop consensus phase among the
  /// SURVIVING clusterheads.
  std::optional<RunSummary> consensus;
  /// mis-then-consensus: true when zero heads survived the MIS phase, so
  /// phase 2 never ran (distinguishes a skipped phase from a real
  /// zero-round consensus).
  bool phase2_skipped = false;

  /// Non-empty when the spec could not be executed on the multihop path.
  std::string error;
};

/// Result of one round-sync workload run (claim E13's substrate check):
/// does the reference-broadcast synchronizer hold the round abstraction
/// together at this drift rate / beacon loss / round length?
struct SyncSummary {
  bool ran = false;
  double max_skew = 0.0;         ///< measured max pairwise skew (seconds)
  double skew_bound = 0.0;       ///< analytic bound (seconds)
  double round_agreement = 0.0;  ///< guarded round-number agreement fraction
  bool within_bound = false;     ///< max_skew <= skew_bound
};

struct RunScenarioOptions {
  /// Record rounds and per-process views and keep the full
  /// ExecutionLog(s) in the outcome -- the --rerun-cell trace-capture
  /// path.  Off for sweeps: the engine then records no rounds at all.
  bool capture_log = false;
};

/// The unified result of run_scenario: exactly one of the three groups is
/// primary, but mis-then-consensus fills both summary (its phase 2) and mh.
struct ScenarioOutcome {
  /// Engine telemetry tallies summed over every phase the scenario ran
  /// (mis-then-consensus: MIS phase + phase-2 consensus).  Deterministic
  /// per spec; round-sync (below the round abstraction) leaves it zero.
  /// Observation only -- nothing here feeds the Aggregator.
  obs::EngineCounters counters;
  /// Consensus verdict: the run itself for consensus workloads, phase 2
  /// for mis-then-consensus, default otherwise.
  RunSummary summary;
  /// Multihop metrics; mh.ran is false for single-hop consensus/round-sync.
  MultihopSummary mh;
  /// Round-sync metrics; sync.ran is false for every other workload.
  SyncSummary sync;
  /// capture_log only: the primary phase's full log (consensus / flood /
  /// mis / MIS phase of mis-then-consensus; absent for a flood or MIS
  /// phase without processes)...
  std::optional<ExecutionLog> log;
  /// ...and the phase-2 consensus log of mis-then-consensus.
  std::optional<ExecutionLog> phase2_log;
};

class WorldFactory {
 public:
  /// Build the full single-hop system for a spec.
  static World make(const ScenarioSpec& spec);

  /// The detector and fault components alone, for callers that assemble
  /// the rest of a world themselves (LaneExecutor's flood / MIS worlds).
  static std::unique_ptr<OracleDetector> make_detector(
      const ScenarioSpec& spec);
  static std::unique_ptr<FailureAdversary> make_fault(
      const ScenarioSpec& spec);

  /// Round budget for a run: spec.max_rounds when set, otherwise a bound
  /// generous enough for every algorithm at this |V| and CST.
  static Round max_rounds(const ScenarioSpec& spec);

  // --- topology-aware path ------------------------------------------------

  /// Materialize the communication graph.  Deterministic in the spec: the
  /// random-geometric generator seeds from spec.seed, and retries derived
  /// seeds (bounded) until the graph is connected, so at the documented
  /// density floor (>= 2.0) sweeps never waste cells on unreachable nodes.
  static Topology make_topology(const ScenarioSpec& spec);

  /// Map the spec's loss adversary onto multihop link physics:
  ///   noloss       -> {1.0, 1.0}   perfect channel, capture always resolves
  ///   ecf          -> {0.95, 0.05} harsh capture-effect regime (claim E14)
  ///   prob         -> {p_deliver, p_deliver/2}
  ///   unrestricted -> {0.5, 0.0}   lossy, contention never resolves
  static MhLinkModel make_link(const ScenarioSpec& spec);

  /// Round budget for a multihop run: spec.max_rounds when set, else a
  /// bound linear in n (flood progress is Omega(diameter) <= n rounds).
  static Round multihop_max_rounds(const ScenarioSpec& spec);

  /// Per-process RNG base for multihop workload processes (flood / MIS):
  /// process i seeds from hash_mix(mh_proc_seed(spec) ^ i).
  static std::uint64_t mh_proc_seed(const ScenarioSpec& spec);

  /// The kCapture channel's link RNG stream seed for this spec.
  static std::uint64_t mh_link_seed(const ScenarioSpec& spec);

  /// The derived single-hop spec for mis-then-consensus phase 2 among k
  /// surviving clusterheads: same axes, n = k, the kPhase2Salt seed stream,
  /// and scheduled crash patterns dropped (their process ids name phase-1
  /// topology nodes, not head indices); random-crash carries over.
  static ScenarioSpec phase2_spec(const ScenarioSpec& spec, std::uint32_t k);

  /// Execute a spec, whatever its workload/topology: round-sync through
  /// the synchronizer, everything else as a one-spec LaneExecutor block.
  /// THE entry point; run_one, --rerun-cell and a violated claim's spec
  /// (ccd_claims) all land here.
  static ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                                      const RunScenarioOptions& options = {});
};

}  // namespace ccd::exp
