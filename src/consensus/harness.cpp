#include "consensus/harness.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace ccd {

std::vector<Value> random_initial_values(std::size_t n,
                                         std::uint64_t num_values,
                                         std::uint64_t seed) {
  Rng rng(seed);
  // |V| = 0 is meaningless; treat it as the singleton value set rather
  // than handing Rng::below an empty range.
  if (num_values == 0) num_values = 1;
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.below(num_values);
  return values;
}

std::vector<Value> split_initial_values(std::size_t n, Value low, Value high) {
  std::vector<Value> values(n, low);
  for (std::size_t i = n / 2; i < n; ++i) values[i] = high;
  return values;
}

std::vector<std::unique_ptr<Process>> instantiate(
    const ConsensusAlgorithm& algorithm,
    const std::vector<Value>& initial_values, std::uint64_t id_base) {
  std::vector<std::unique_ptr<Process>> processes;
  processes.reserve(initial_values.size());
  for (std::size_t i = 0; i < initial_values.size(); ++i) {
    ProcessIdentity identity;
    identity.index = static_cast<ProcessId>(i);
    identity.id = id_base + i;
    identity.has_unique_id = !algorithm.anonymous();
    processes.push_back(
        algorithm.make_process(identity, initial_values[i]));
  }
  return processes;
}

World make_world(const ConsensusAlgorithm& algorithm,
                 std::vector<Value> initial_values,
                 std::unique_ptr<ContentionManager> cm,
                 std::unique_ptr<OracleDetector> cd,
                 std::unique_ptr<LossAdversary> loss,
                 std::unique_ptr<FailureAdversary> fault,
                 std::uint64_t id_base) {
  World world;
  world.processes = instantiate(algorithm, initial_values, id_base);
  world.initial_values = std::move(initial_values);
  world.cm = std::move(cm);
  world.cd = std::move(cd);
  world.loss = std::move(loss);
  world.fault = std::move(fault);
  return world;
}

RunSummary summarize_consensus(Round cst, const RunResult& result,
                               const ExecutionLog& log,
                               const std::vector<Value>& initial_values) {
  RunSummary summary;
  summary.result = result;
  summary.verdict = check_consensus(log, initial_values);
  summary.cst = cst;
  if (cst != kNeverRound && summary.verdict.last_decision_round > cst) {
    summary.rounds_after_cst = summary.verdict.last_decision_round - cst;
  }
  return summary;
}

RunSummary run_consensus(World world, Round max_rounds,
                         ExecutorOptions options, ExecutionLog* log_out,
                         obs::EngineCounters* counters_out) {
  // Degenerate worlds (n = 0, missing components, everyone crashed in the
  // opening round) are legal inputs: the Executor substitutes neutral
  // components and exits empty worlds immediately, and the checker treats
  // a world with no correct process as vacuously terminated.  CST is read
  // AFTER construction so it reflects the substituted components (NoLoss
  // has r_cf = 1; a null loss slot would otherwise read as "never").
  Executor executor(std::move(world), options);
  const Round cst = executor.world().cst();
  const RunResult result = executor.run(max_rounds);
  RunSummary summary = summarize_consensus(cst, result, executor.log(),
                                           executor.world().initial_values);
  if (log_out) *log_out = executor.log();
  if (counters_out) counters_out->add(executor.engine().counters(0));
  return summary;
}

}  // namespace ccd
