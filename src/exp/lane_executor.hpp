// LaneExecutor: WorldFactory::run_scenario for a BLOCK of specs that differ
// only in seed, executed through the batched LaneEngine (up to kLaneWidth
// seeds in lockstep) instead of one RoundEngine per run.
//
// The contract mirrors the scalar path exactly: run_block(specs)[k] is
// byte-for-byte the ScenarioOutcome that run_scenario(specs[k]) produces --
// same component construction (same factories, same hash_mix(seed ^ salt)
// streams), same per-workload measurement loops (flood coverage / MIS
// settlement judged per round over survivors, quiesce gating, phase-2
// consensus among surviving heads), same counters.  SweepRunner relies on
// this to keep reports, perf-sidecar counter totals, and golden hashes
// identical with lanes on or off.
//
// Routing (the scalar tail):
//
//   laned            consensus/singlehop (kMatrix x kGlobal), consensus on
//                    line/ring/grid/rgg (kMatrix x kLocal), flood and mis
//                    (kCapture x kLocal), and the MIS phase of
//                    mis-then-consensus (its phase-2 consensus runs per
//                    lane through the scalar harness: the head count k --
//                    and with it n -- is seed-dependent).  A random-
//                    geometric graph is drawn per seed, so each lane builds
//                    its own graph and diameter; fixed shapes build once.
//
//   scalar fallback  round-sync (below the round abstraction), n = 0, and
//                    any run capturing logs or views (trace capture wants
//                    the engine's round recording)
//
// eligible() is the routing predicate; callers (SweepRunner) form blocks
// only from eligible specs within one grid cell, so every spec in a block
// shares all axes but the seed.  The S mod 64 remainder of a cell simply
// arrives as a smaller block.
#pragma once

#include <vector>

#include "exp/scenario_spec.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {

class LaneExecutor {
 public:
  /// Can this spec run through the lane path under these options?
  static bool eligible(const ScenarioSpec& spec,
                       const RunScenarioOptions& options = {});

  /// Execute a block of 1..kLaneWidth specs (all eligible, identical up to
  /// seed) in lockstep; outcome k corresponds to specs[k] and equals
  /// WorldFactory::run_scenario(specs[k], options).
  static std::vector<ScenarioOutcome> run_block(
      const std::vector<ScenarioSpec>& specs,
      const RunScenarioOptions& options = {});
};

}  // namespace ccd::exp
