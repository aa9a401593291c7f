// Convenience layer for assembling a system (environment + algorithm,
// Definition 10), running it, and checking the consensus properties.  The
// tests, benches and examples all build on these helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "consensus/checker.hpp"
#include "model/process.hpp"
#include "sim/executor.hpp"
#include "sim/world.hpp"

namespace ccd {

/// Uniformly random initial value assignment from V = {0..num_values-1}.
std::vector<Value> random_initial_values(std::size_t n,
                                         std::uint64_t num_values,
                                         std::uint64_t seed);

/// Half the processes get `low`, the other half `high` -- the split
/// assignment the lower-bound scenarios like.
std::vector<Value> split_initial_values(std::size_t n, Value low, Value high);

/// Instantiate `algorithm` for n = initial_values.size() processes.
/// Identifiers are id_base, id_base+1, ... (unique); anonymous algorithms
/// never see them.
std::vector<std::unique_ptr<Process>> instantiate(
    const ConsensusAlgorithm& algorithm,
    const std::vector<Value>& initial_values, std::uint64_t id_base = 0);

/// Assemble a World (the paper's "system").  All components are required.
World make_world(const ConsensusAlgorithm& algorithm,
                 std::vector<Value> initial_values,
                 std::unique_ptr<ContentionManager> cm,
                 std::unique_ptr<OracleDetector> cd,
                 std::unique_ptr<LossAdversary> loss,
                 std::unique_ptr<FailureAdversary> fault,
                 std::uint64_t id_base = 0);

struct RunSummary {
  RunResult result;
  ConsensusVerdict verdict;
  Round cst = kNeverRound;
  /// Rounds needed beyond CST: last correct decision round minus CST,
  /// clamped at 0 (decisions before CST count as 0); 0 when the world has
  /// no finite CST.
  Round rounds_after_cst = 0;
};

/// The epilogue every consensus runner shares: check `log` against the
/// initial values and derive rounds_after_cst from `cst` and the verdict.
RunSummary summarize_consensus(Round cst, const RunResult& result,
                               const ExecutionLog& log,
                               const std::vector<Value>& initial_values);

/// Run to completion (or max_rounds) and verify.  `log_out`, when non-null,
/// receives a copy of the full ExecutionLog (the --rerun-cell trace-capture
/// path); sweeps leave it null.  `counters_out`, when non-null, receives
/// the engine's telemetry tallies ADDED onto whatever it already holds
/// (multi-phase callers accumulate across phases); pure observation --
/// the run itself is unchanged.
RunSummary run_consensus(World world, Round max_rounds,
                         ExecutorOptions options = {},
                         ExecutionLog* log_out = nullptr,
                         obs::EngineCounters* counters_out = nullptr);

}  // namespace ccd
