// LaneExecutor: execute a BLOCK of specs that differ only in seed through
// one LaneEngine (up to kLaneWidth seeds in lockstep).  This is the one
// code path of every engine workload: WorldFactory::run_scenario is a
// one-spec block, SweepRunner hands it whole blocks.
//
//   consensus/singlehop   kMatrix x kGlobal over clique(n)
//   consensus/other       kMatrix x kLocal over the graph; the SAME
//                         loss/cm/detector/fault stack
//   flood, mis            kCapture x kLocal, stepped under the workload's
//                         round budget: flood coverage / MIS settlement are
//                         judged per round over survivors, only after the
//                         adversary's last crash round (quiesce gating)
//   mis-then-consensus    the MIS phase as above, then per lane a one-spec
//                         consensus block among its surviving heads (the
//                         head count k -- and with it n -- is
//                         seed-dependent)
//
// A random-geometric graph is drawn per seed, so each lane builds its own
// graph and diameter; fixed shapes build once and every lane shares it.
// Single-hop consensus builds no graph (kGlobal reads none).  run_block(specs)[k] is a
// function of specs[k] alone -- block size and company never change a
// byte -- so SweepRunner's partition (and --no-lanes, which makes every
// block one spec) leaves reports, perf-sidecar counter totals and golden
// hashes unchanged.  RunScenarioOptions::capture_log records rounds and
// views in every lane's log (the --rerun-cell trace capture).
//
// eligible() is the routing predicate: everything but round-sync, which
// sits below the round abstraction.  Callers form blocks only from
// eligible specs within one grid cell, so every spec in a block shares all
// axes but the seed.  The S mod 64 remainder of a cell simply arrives as
// a smaller block.
#pragma once

#include <vector>

#include "exp/scenario_spec.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {

class LaneExecutor {
 public:
  /// Can this spec run through the engine?  Every workload but round-sync
  /// can, whatever the options.
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
