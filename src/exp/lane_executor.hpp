// LaneExecutor: execute a BLOCK of specs that differ only in seed, one
// world at a time, each on its own LaneEngine.  This is the one code path
// of every engine workload: WorldFactory::run_scenario is a one-spec block,
// SweepRunner hands it up to kLaneWidth seeds of one cell.
//
//   consensus/singlehop   kMatrix x kGlobal over clique(n)
//   consensus/other       kMatrix x kLocal over the graph; the SAME
//                         loss/cm/detector/fault stack
//   flood, mis            kCapture x kLocal, stepped under the workload's
//                         round budget: flood coverage / MIS settlement are
//                         judged per round over survivors, only after the
//                         adversary's last crash round (quiesce gating)
//   mis-then-consensus    the MIS phase as above, then a single-hop
//                         consensus among its surviving heads (the head
//                         count k -- and with it n -- is seed-dependent)
//
// What a block amortises is the graph: a fixed shape is the same for every
// seed, so it and its diameter are built once per block; a
// random-geometric graph is drawn per seed.  Single-hop consensus builds
// no graph (kGlobal reads none).  run_block(specs)[k] is a function of
// specs[k] alone -- block size and company never change a byte -- so
// SweepRunner's partition leaves reports, perf-sidecar counter totals and
// golden hashes unchanged.  RunScenarioOptions::capture_log records rounds
// and views in the log (the --rerun-cell trace capture).
//
// eligible() is the routing predicate: everything but round-sync, which
// sits below the round abstraction.  Callers form blocks only from
// eligible specs within one grid cell, so every spec in a block shares all
// axes but the seed.
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
  /// seed); outcome k corresponds to specs[k] and equals
  /// WorldFactory::run_scenario(specs[k], options).
  static std::vector<ScenarioOutcome> run_block(
      const std::vector<ScenarioSpec>& specs,
      const RunScenarioOptions& options = {});
};

}  // namespace ccd::exp
