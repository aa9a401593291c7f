// Synchronous single-hop round executor: the paper's Definition 11 model
// proper, as a one-lane adapter over the topology-aware LaneEngine with
//
//   topology = the clique over the processes (single hop: everyone hears
//              everyone; the engine reads no graph for it)
//   channel  = ChannelModel::kMatrix (the Section 3.2 loss adversary)
//   scope    = CollisionScope::kGlobal (one oracle, global broadcaster
//                                       count)
//
// which the engine executes as:
//
//   W_r  contention advice        (constraint 7: from the manager)
//   M_r  message assignment       (constraint 3: the msg function)
//   N_r  receive multisets        (constraints 4-5: loss adversary +
//                                  enforced self-delivery / integrity /
//                                  no-duplication)
//   D_r  collision advice         (constraint 6: detector envelope)
//   C_r  state transitions        (constraint 2: trans function, or the
//                                  absorbing fail state chosen by the
//                                  failure adversary)
//
// Crash semantics: a kAfterSend crash in round r lets the round-r message
// out but skips the transition -- exactly the formal model's "C_r[i] =
// fail" branch.  A kBeforeSend crash silences the process from round r on.
//
// Halted processes (decided-and-halted, Algorithms 1-3) are correct but no
// longer participate: they stop broadcasting and transitioning.  The alive
// mask passed to practical contention managers excludes them, mirroring a
// real wake-up service that stops scheduling devices which left the
// protocol.
//
// Rounds are always recorded in the log (the lower-bound constructions
// and trace checks read them); per-process views only with record_views.
#pragma once

#include "engine/lane_engine.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"

namespace ccd {

struct ExecutorOptions {
  bool record_views = true;
  /// Stop run() as soon as every non-crashed process has decided.
  bool stop_when_all_decided = true;
};

class Executor {
 public:
  Executor(World world, ExecutorOptions options = {});

  /// Execute exactly one round.
  void step() { engine_.step(); }

  /// Execute until all non-crashed processes decide (if enabled) or
  /// max_rounds elapse.  Ends the execution: later steps are no-ops.
  RunResult run(Round max_rounds) {
    engine_.run(max_rounds);
    return engine_.result(0);
  }

  Round current_round() const { return engine_.current_round(); }
  const ExecutionLog& log() const { return engine_.log(0); }
  const World& world() const { return engine_.world(0); }

  bool alive(ProcessId i) const { return engine_.alive(0, i); }
  bool decided(ProcessId i) const { return engine_.decided(0, i); }
  Value decision(ProcessId i) const { return engine_.decision(0, i); }

  /// True iff every non-crashed process has decided.
  bool all_correct_decided() const { return engine_.all_correct_decided(0); }

  /// The underlying one-lane engine (lane 0).
  LaneEngine& engine() { return engine_; }

 private:
  LaneEngine engine_;
};

}  // namespace ccd
