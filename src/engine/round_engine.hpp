// RoundEngine: THE round executor.  One engine drives Definition 11's
// round structure -- W_r contention advice, M_r message assignment, N_r
// receive multisets, D_r collision-detector advice, C_r transitions, with
// the Section 3.3 crash adversary at both crash points -- over an
// arbitrary Topology.  The paper's single-hop model is the clique special
// case; the multihop extension its conclusion announces is every other
// graph.  sim::Executor and MultihopExecutor are thin adapters over this
// class, so there is exactly one implementation of the round semantics
// (PR 3 existed because there were two).
//
// Two orthogonal configuration axes cover both legacy semantics and their
// new compositions:
//
//  * ChannelModel -- who decides message loss.
//      kMatrix:  a LossAdversary fills an (receiver, sender) delivery
//                matrix (the paper's Section 3.2 environment); the engine
//                additionally masks delivery by topology adjacency, which
//                on a clique is a no-op (the exact single-hop semantics)
//                and on any other graph composes the adversary with the
//                neighborhood structure.
//      kCapture: per-neighborhood capture-effect physics (MhLinkModel): a
//                lone broadcasting neighbor arrives with p_single; under
//                contention each receiver independently captures at most
//                one neighbor with p_capture.  The legacy multihop link.
//
//  * CollisionScope -- what a collision detector sees.
//      kGlobal: the single-hop Definition 6 oracle: one global broadcaster
//               count c, advice for every process from OracleDetector::
//               advise (clique topologies only -- on a clique the local
//               count degenerates to c, so this is not a loss of
//               generality, just the byte-exact legacy call sequence).
//      kLocal:  per-neighborhood counts c_i = |{j broadcasting : j == i or
//               j ~ i}| with advice from the same DetectorSpec envelope
//               evaluated per receiver (OracleDetector::advise_local).
//
// Crash-point visibility follows the scope: kGlobal keeps the literal
// Definition 11 reading (an after-send crasher's round-r view N_r[i] still
// forms -- it feeds the detector's t vector -- only its transition is
// skipped), while kLocal removes the crasher from the channel immediately
// (the legacy multihop reading: a dead radio neither receives nor shows up
// in later neighborhoods).  Both are faithful to "C_r[i] = fail"; the
// difference is only where the corpse is still observable, and each
// adapter pins the reading its tests and golden reports were built on.
//
// Hot loop: every per-round buffer (send flags, receive multisets, advice
// vectors, the delivery matrix, alive/participating bitmasks -- packed
// std::vector<bool>) is preallocated at construction and reused; after the
// first round a step() performs no heap allocation unless round traces or
// per-process views are being recorded (bench_sim_micro's BM_EngineRound
// pins the steady state).  Both crash points run only inside the crash
// window r <= FailureAdversary::last_crash_round(); later rounds skip the
// hooks and the crash commits (LaneEngine follows the same rule).
#pragma once

#include <memory>
#include <vector>

#include "multihop/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace ccd {

/// Capture-effect link physics for ChannelModel::kCapture (the Section 1.1
/// radio regime): p_single is the lone-neighbor delivery probability (1.0
/// models collision freedom), p_capture the chance a receiver captures one
/// of several broadcasting neighbors.
struct MhLinkModel {
  double p_single = 1.0;
  double p_capture = 0.5;
};

enum class ChannelModel : std::uint8_t { kMatrix, kCapture };
enum class CollisionScope : std::uint8_t { kGlobal, kLocal };

/// Everything a RoundEngine drives: the paper's "system" (World) plus the
/// communication graph and the channel/detector-scope configuration.
struct EngineWorld {
  World world;          ///< processes + cm/cd/loss/fault (null = neutral)
  /// Communication graph; Topology::clique(n) recovers single-hop.
  Topology topology = Topology::clique(0);
  ChannelModel channel = ChannelModel::kMatrix;
  CollisionScope scope = CollisionScope::kGlobal;
  MhLinkModel link;     ///< kCapture physics; ignored by kMatrix
  std::uint64_t link_seed = 0;  ///< kCapture RNG stream seed
};

struct EngineOptions {
  /// Record per-process views in the log (needs record_rounds).
  bool record_views = true;
  /// Record per-round traces (transmission/cd/cm) in the log.  Decisions
  /// and crashes are always recorded.  Off = the allocation-free mode
  /// sweeps run in.
  bool record_rounds = true;
  /// Stop run() as soon as every non-crashed process has decided.
  bool stop_when_all_decided = true;
};

struct RunResult {
  bool all_correct_decided = false;
  Round last_decision_round = 0;  ///< max decision round among correct procs
  Round rounds_executed = 0;
  std::uint32_t num_crashed = 0;
};

class RoundEngine {
 public:
  RoundEngine(EngineWorld world, EngineOptions options = {});

  /// Execute exactly one round.
  void step();

  /// Execute until all non-crashed processes decide (if enabled) or
  /// max_rounds elapse.
  RunResult run(Round max_rounds);

  Round current_round() const { return round_; }
  const ExecutionLog& log() const { return log_; }
  const World& world() const { return world_.world; }
  const Topology& topology() const { return world_.topology; }
  Process& process(std::size_t i) { return *world_.world.processes[i]; }
  std::size_t size() const { return world_.world.processes.size(); }

  bool alive(std::size_t i) const { return alive_[i]; }
  std::size_t num_alive() const { return num_alive_; }
  /// Crashes the failure adversary actually landed (alive targets only).
  std::uint64_t crashes_applied() const { return crashes_applied_; }

  bool decided(std::size_t i) const { return decided_value_[i] != kNoValue; }
  Value decision(std::size_t i) const { return decided_value_[i]; }
  /// True iff every non-crashed process has decided.
  bool all_correct_decided() const;

  /// Broadcasts attempted over all executed rounds (the per-node energy
  /// budget of the Section 1.1 literature).
  std::uint64_t total_broadcasts() const { return total_broadcasts_; }

  /// Telemetry tallies for this engine's execution so far.  Plain
  /// engine-local increments (no atomics in the hot loop) and -- like the
  /// execution itself -- a pure function of the EngineWorld, so counter
  /// totals are deterministic and shard merges sum them exactly.  Never
  /// feeds the Aggregator: reports stay byte-identical with telemetry on
  /// or off.
  const obs::EngineCounters& counters() const { return counters_; }

  /// Last executed round's per-process observations (kLocal diagnostics).
  std::uint32_t last_receive_count(std::size_t i) const {
    return recv_count_[i];
  }
  std::uint32_t last_local_broadcasters(std::size_t i) const {
    return local_c_[i];
  }
  CdAdvice last_cd(std::size_t i) const { return cd_advice_[i]; }

 private:
  void deliver_matrix(Round r);
  void deliver_capture();
  void commit_crashes(Round r);

  EngineWorld world_;
  EngineOptions options_;
  obs::EngineCounters counters_;
  ExecutionLog log_;
  Rng link_rng_;
  Round round_ = 0;
  std::uint64_t total_broadcasts_ = 0;
  std::uint64_t crashes_applied_ = 0;
  std::size_t num_alive_ = 0;
  std::uint32_t broadcaster_count_ = 0;

  std::vector<bool> alive_;
  std::vector<bool> participating_;  // alive and not halted; scratch
  std::vector<Value> decided_value_;

  // Per-round scratch buffers (preallocated; reused every round).
  std::vector<CmAdvice> cm_advice_;
  std::vector<CdAdvice> cd_advice_;
  std::vector<bool> crash_mask_;
  std::vector<bool> sent_flag_;
  std::vector<std::optional<Message>> sent_msg_;
  std::vector<std::vector<Message>> recv_;
  std::vector<std::uint32_t> recv_count_;
  std::vector<std::uint32_t> local_c_;
  std::vector<std::uint32_t> broadcasting_neighbors_;  // per-receiver scratch
  DeliveryMatrix delivery_;
};

}  // namespace ccd
