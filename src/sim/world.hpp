// World: one environment + algorithm instantiation (a "system" in the
// paper's Definition 10), ready to be driven by the round engine.
#pragma once

#include <memory>
#include <vector>

#include "cd/oracle_detector.hpp"
#include "cm/contention_manager.hpp"
#include "fault/failure_adversary.hpp"
#include "model/process.hpp"
#include "net/loss_adversary.hpp"

namespace ccd {

struct World {
  std::vector<std::unique_ptr<Process>> processes;
  std::vector<Value> initial_values;  ///< parallel to processes
  std::unique_ptr<ContentionManager> cm;
  std::unique_ptr<OracleDetector> cd;
  std::unique_ptr<LossAdversary> loss;
  std::unique_ptr<FailureAdversary> fault;

  std::size_t size() const { return processes.size(); }

  /// Communication stabilization time (Definition 20):
  /// max{r_cf, r_acc, r_wake} over the components that define one.
  /// Components with no guarantee (NoCM, NoCF loss, no-accuracy detector)
  /// contribute kNeverRound, which propagates: a world without all three
  /// guarantees has no finite CST.
  Round cst() const;
};

}  // namespace ccd
