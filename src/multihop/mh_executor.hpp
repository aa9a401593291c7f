// Multihop round executor: Definition 11 generalized from a clique to an
// arbitrary topology, exactly the extension the paper's conclusion plans.
// A one-lane adapter over the LaneEngine with
//
//   channel = ChannelModel::kCapture (Section 1.1 capture-effect physics)
//   scope   = CollisionScope::kLocal (per-neighborhood detector counts)
//
// Per round, for each receiver i the relevant broadcaster count is LOCAL:
//   c_i = |{ j : j broadcast and (j == i or j adjacent to i) }|
// and T(i) counts the messages i actually received (self-delivery always
// holds for broadcasters).  Collision detector advice is produced from the
// same DetectorSpec envelope as in the single-hop model, evaluated on
// (c_i, T(i)) -- on a clique this degenerates to the single-hop semantics
// (mh_executor_test pins that equivalence down).
//
// The link model mirrors the capture-effect physics of Section 1.1: a lone
// broadcasting neighbor is received with probability p_single (1.0 models
// collision freedom); under contention each receiver independently
// captures at most one of its broadcasting neighbors with probability
// p_capture.
//
// Crash failures follow the Section 3.3 adversary at the Definition 11
// points: a kBeforeSend crash in round r silences the process from round r
// on; a kAfterSend crash lets the round-r message go out (and count toward
// its neighbors' c_i) but skips the round-r transition.  Dead processes
// never broadcast again -- so they drop out of every later c_i -- and are
// excluded from delivery and detector advice.
#pragma once

#include <memory>
#include <vector>

#include "cd/oracle_detector.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "model/process.hpp"
#include "multihop/topology.hpp"

namespace ccd {

class MultihopExecutor {
 public:
  /// `fault` may be null (equivalent to NoFailures).
  MultihopExecutor(Topology topology,
                   std::vector<std::unique_ptr<Process>> processes,
                   DetectorSpec spec, std::unique_ptr<AdvicePolicy> policy,
                   MhLinkModel link, std::uint64_t seed,
                   std::unique_ptr<FailureAdversary> fault = nullptr);

  void step() { engine_.step(); }
  Round current_round() const { return engine_.current_round(); }

  const Topology& topology() const { return engine_.topology(0); }
  Process& process(std::size_t i) { return engine_.process(0, i); }
  std::size_t size() const { return engine_.size(); }

  /// False once the failure adversary crashed process i.
  bool alive(std::size_t i) const { return engine_.alive(0, i); }
  std::size_t num_alive() const { return engine_.num_alive(0); }
  /// Crashes the adversary actually applied so far (alive targets only).
  std::uint64_t crashes_applied() const { return engine_.crashes_applied(0); }

  /// Receive count of process i in the last executed round.
  std::uint32_t last_receive_count(std::size_t i) const {
    return engine_.last_receive_count(0, i);
  }
  /// Local broadcaster count c_i in the last executed round.
  std::uint32_t last_local_broadcasters(std::size_t i) const {
    return engine_.last_local_broadcasters(0, i);
  }
  CdAdvice last_cd(std::size_t i) const { return engine_.last_cd(0, i); }

  /// Broadcasts attempted over all executed rounds (the energy/message
  /// cost the Section 1.1 literature budgets per node).
  std::uint64_t total_broadcasts() const {
    return engine_.total_broadcasts(0);
  }

  /// The underlying one-lane engine (lane 0).
  LaneEngine& engine() { return engine_; }

 private:
  LaneEngine engine_;
};

}  // namespace ccd
