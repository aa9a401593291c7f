// LaneEngine: THE round executor.  One engine drives Definition 11's round
// structure -- W_r contention advice, M_r message assignment, N_r receive
// multisets, D_r collision-detector advice, C_r transitions, with the
// Section 3.3 crash adversary at both crash points -- for one world over
// an arbitrary Topology.  The paper's single-hop model is the clique
// special case; the multihop extension its conclusion announces is every
// other graph.  The consensus harness, the lower-bound constructions and
// every sweep workload construct it directly, so there is exactly one
// implementation of the round semantics.
//
// Under kLocal the engine reads the world's adjacency bitmask rows.
// kGlobal reads no graph at all: its topology is the clique over the
// processes, and the engine builds no rows for it.
//
// Two orthogonal configuration axes (per EngineWorld):
//
//  * ChannelModel -- who decides message loss.
//      kMatrix:  a LossAdversary fills a (receiver, sender) delivery
//                matrix (the paper's Section 3.2 environment); delivery is
//                additionally masked by topology adjacency, which on a
//                clique is a no-op (the exact single-hop semantics) and on
//                any other graph composes the adversary with the
//                neighborhood structure.
//      kCapture: per-neighborhood capture-effect physics (MhLinkModel): a
//                lone broadcasting neighbor arrives with p_single; under
//                contention each receiver independently captures at most
//                one neighbor with p_capture.  Neighborhood physics needs
//                the kLocal scope.
//
//  * CollisionScope -- what a collision detector sees.
//      kGlobal: the single-hop Definition 6 oracle: one global broadcaster
//               count c, advice for every process from OracleDetector::
//               advise (clique topologies only -- on a clique the local
//               count degenerates to c).  Delivery is the participation
//               mask, so no adjacency is read or built.
//      kLocal:  per-neighborhood counts c_i = |{j broadcasting : j == i or
//               j ~ i}| with advice from the same DetectorSpec envelope for
//               every live process, in one call: from exact per-process
//               counts over a delivery matrix (OracleDetector::
//               advise_local), from word rows on the capture channel, where
//               t_i <= 2 makes every forced report a formula over the
//               neighbour-count planes (OracleDetector::advise_capture).
//
// Crash-point visibility follows the scope: kGlobal keeps the literal
// Definition 11 reading (an after-send crasher's round-r view N_r[i] still
// forms -- it feeds the detector's t vector -- only its transition is
// skipped), while kLocal removes the crasher from the channel immediately
// (a dead radio neither receives nor shows up in later neighborhoods, and
// its detector advice reads kNull from then on).  Both are faithful to
// "C_r[i] = fail"; the difference is only where the corpse is still
// observable.
//
// Layout is struct-of-arrays, one allocation per concern:
//
//  * process words -- the alive / halted / dormant / participating / sent
//    / decided sets over processes, the crash marks, D_r's advice (one
//    collision row, the only form C_r and last_cd() read), kCapture's
//    captured row and neighbour-count planes, and (kLocal only) each
//    adjacency row are word rows (util/bitwords.hpp): ceil(n/64)
//    `uint64_t`s, bits at or above n always zero.  Every word row but
//    adjacency lives in one buffer.  They are the only form of a process
//    set: the adversary seams read them as BitViews (W_r's participants,
//    the crash hooks' live set, the loss adversary's senders, kLocal D_r's
//    live set) and write crash marks into one word row, and the loss
//    adversary's DeliveryMatrix is one receiver word row per sender.  The
//    delivery loops iterate SET BITS of `sent` (masked by the adjacency row
//    under kLocal) instead of scanning all n senders per receiver, so
//    clique delivery costs O(broadcasters * n / 64) word operations, not
//    O(n^2).  Whether every correct process decided is one AND-NOT per
//    word.
//
//  * per-process state -- contention advice, receive counts, sent
//    messages and decisions, one vector each, plus the tallies (counters,
//    broadcasts, crashes, crash window, survivors), the link RNG and the
//    log.  kLocal-only scratch (the in-range receivers; over a delivery
//    matrix the local counts c_i) and the loss adversary's delivery matrix
//    exist only where that scope or channel reads them: a single-hop
//    engine allocates no kLocal scratch, and a loss-free one no matrix
//    either.
//
// Receive multisets N_r[i] are not stored per receiver: each round appends
// them, in ascending receiver order, to ONE flat buffer, and receiver i
// reads a span of its count (recv_count[i], kept for the detector and the
// accessors) from its offset.  On the capture channel a receiver gets at
// most two messages, so receiver i owns the buffer's two slots from 2i.  A
// receiver delivery skips has count 0 and so reads the empty multiset by
// construction -- never an earlier round's.
//
// A run allocates nothing per round once every buffer has reached its
// round size: the flat receive buffer starts with room for one loss-free
// clique round, the log reserves one decision per process, and the
// algorithms count distinct values in place (distinct_values).
//
// Determinism: the world owns its component objects (cm / cd / loss /
// fault / processes / link RNG) and the engine calls them in a fixed order
// with fixed arguments, so an execution, its log and its EngineCounters
// are a function of the EngineWorld alone
// (tests/engine/lane_differential_test.cpp pins them against hashes frozen
// from the retired scalar engine).  Per-round cost follows events rather
// than n:
//
//  * masks and termination are word operations, not per-process scans;
//  * senders are iterated as set bits, never scanned;
//  * a capture round counts neighbours in words: one pass over the
//    senders' adjacency rows builds saturating bit-sliced planes (the
//    processes with >= 1, 2, 3, 4 broadcasting neighbours), which give the
//    receivers in range, the collisions, which receivers draw p_single or
//    p_capture, and every forced detector report; a receiver's exact count
//    is popped only after a capture succeeds (for the uniform pick) or for
//    a report the policy chooses, and the captured neighbour is taken
//    straight from the set bits of `sent & adjacency`;
//  * kLocal delivery visits only live receivers in range of a sender
//    (`sent` OR the senders' adjacency rows); a receiver out of range
//    keeps zero counts, draws no link randomness and reaches no adversary,
//    so skipping it is unobservable;
//  * round and view recording is opt-in (EngineOptions); sweeps record
//    neither -- reports read only decisions and crashes;
//  * halt and dormant state are mirrored in the halted and dormant words,
//    refreshed together only inside the process's own on_send/on_receive
//    (the one place either can change) and written only when a bit flips;
//  * dormant processes (Process::dormant(): a flood node without the
//    message, a dominated MIS node) cost nothing while they hear nothing:
//    M_r never calls their on_send, and kLocal's C_r skips them unless
//    they are in range of a sender.  They stay participants, so W_r's
//    view is unchanged, and D_r still advises every live process, so the
//    detector's RNG stream and the recorded views are too;
//  * kGlobal delivery reads no adjacency: the receivers are the
//    participants and the senders the set bits of `sent`;
//  * NoLoss (LossAdversary::always_delivers) skips the delivery matrix
//    entirely -- it is stateless and RNG-free, so skipping it is
//    unobservable, and a loss-free engine never allocates the matrix; any
//    other adversary gets a zeroed word matrix and the sent set, and
//    delivery reads only the sender rows;
//  * both crash points run only inside the adversary's crash window,
//    r <= FailureAdversary::last_crash_round(); a commit walks the set
//    bits of `crash & alive`, and kGlobal's C_r masks the after-send marks
//    straight out of the participants' words.
//
// Termination: run() stops stepping once every correct process decided
// (stop_when_all_decided) or the round budget is spent; a workload with
// its own completion condition (the flood / MIS budget loops) simply stops
// calling step().  result() reads the state the engine stopped in.  A
// world without processes (n = 0) is done before its first round: run()
// never steps it, and the budget loops skip it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "multihop/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"
#include "util/bitwords.hpp"
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

/// Everything one engine drives: the paper's "system" (World) plus the
/// communication graph and the channel/detector-scope configuration.
struct EngineWorld {
  World world;          ///< processes + cm/cd/loss/fault (null = neutral)
  /// kLocal's communication graph.  kGlobal reads none (its graph is the
  /// clique over the processes), so single-hop callers leave it null; one
  /// given under kGlobal must be that clique.
  std::shared_ptr<const Topology> topology;
  ChannelModel channel = ChannelModel::kMatrix;
  CollisionScope scope = CollisionScope::kGlobal;
  MhLinkModel link;     ///< kCapture physics; ignored by kMatrix
  std::uint64_t link_seed = 0;  ///< kCapture RNG stream seed
};

struct EngineOptions {
  /// Record per-round traces (transmission/cd/cm) in the log.  Decisions
  /// and crashes are always recorded.  Off = the mode sweeps run in.
  bool record_rounds = false;
  /// Also record per-process views (needs record_rounds).
  bool record_views = false;
  /// run(): stop as soon as every non-crashed process decided.
  bool stop_when_all_decided = true;
};

struct RunResult {
  bool all_correct_decided = false;
  Round last_decision_round = 0;  ///< max decision round among correct procs
  Round rounds_executed = 0;
  std::uint32_t num_crashed = 0;
};

/// Max runs per sweep block: SweepRunner hands LaneExecutor::run_block at
/// most this many seeds of one cell.
inline constexpr std::size_t kLaneWidth = 64;

class LaneEngine {
 public:
  /// kCapture needs kLocal.
  explicit LaneEngine(EngineWorld world, EngineOptions options = {});
  /// The single-hop engine: `world` over the clique, kMatrix x kGlobal.
  explicit LaneEngine(World world, EngineOptions options = {});

  std::size_t size() const { return n_; }
  Round current_round() const { return round_; }
  /// The graph; kLocal worlds only (a kGlobal world may carry none).
  const Topology& topology() const { return *world_.topology; }

  /// Advance exactly one round.
  void step();

  /// Step until every correct process decided (when stop_when_all_decided)
  /// or max_rounds elapsed; the stop condition is evaluated before each
  /// step.  Returns result().
  RunResult run(Round max_rounds);

  /// The run so far: rounds executed, decisions of the correct processes,
  /// crashes.
  RunResult result() const;

  const World& world() const { return world_.world; }
  Process& process(std::size_t i) { return *world_.world.processes[i]; }
  bool alive(std::size_t i) const { return (alive_[i / 64] >> (i % 64)) & 1u; }
  std::size_t num_alive() const { return num_alive_; }
  /// Live processes that are not dormant (Process::dormant()).
  std::size_t num_awake() const;
  /// Crashes the failure adversary actually landed (alive targets only).
  std::uint64_t crashes_applied() const { return crashes_applied_; }
  /// Broadcasts attempted over all executed rounds (the per-node energy
  /// budget of the Section 1.1 literature).
  std::uint64_t total_broadcasts() const { return total_broadcasts_; }
  bool decided(std::size_t i) const { return decided_value_[i] != kNoValue; }
  Value decision(std::size_t i) const { return decided_value_[i]; }
  /// True iff every non-crashed process has decided.
  bool all_correct_decided() const;
  const ExecutionLog& log() const { return log_; }

  /// Telemetry tallies for the execution so far.  Plain engine-local
  /// increments (no atomics in the hot loop) and -- like the execution
  /// itself -- a pure function of the EngineWorld, so counter totals are
  /// deterministic and shard merges sum them exactly.  Never feeds the
  /// Aggregator: reports stay byte-identical with telemetry on or off.
  const obs::EngineCounters& counters() const { return counters_; }

  /// Observations of process i in the last executed round.
  std::uint32_t last_receive_count(std::size_t i) const {
    return recv_count_[i];
  }
  /// c_i: the global broadcaster count under kGlobal.
  std::uint32_t last_local_broadcasters(std::size_t i) const;
  /// D_r's advice to process i, read from the collision row.
  CdAdvice last_cd(std::size_t i) const {
    return (collision_[i / 64] >> (i % 64)) & 1u ? CdAdvice::kCollision
                                                 : CdAdvice::kNull;
  }

 private:
  BitView view(const std::uint64_t* row) const { return {{row, words_}, n_}; }
  const std::uint64_t* adj_row(std::size_t i) const {
    return &adj_[i * words_];
  }
  void commit_crashes(Round r);
  void deliver_matrix_global(Round r);
  void deliver_matrix_local(Round r);
  void deliver_capture();
  const std::uint64_t* receivers_in_range();
  void close_multiset(std::size_t i, std::size_t off);
  std::span<const Message> received(std::size_t i) const;
  void note_flags(std::size_t i);
  void record_round();

  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< words per process row: ceil(n/64)
  EngineOptions options_;
  bool local_ = false;     ///< CollisionScope::kLocal
  bool capture_ = false;   ///< ChannelModel::kCapture
  Round round_ = 0;
  EngineWorld world_;

  // Per-process advice, counts, messages and decisions ([i]).
  std::vector<CmAdvice> cm_advice_;
  std::vector<std::uint32_t> recv_count_;
  std::vector<std::uint32_t> local_c_;  // kLocal x kMatrix only
  std::vector<Message> sent_msg_;       // sent bit = valid
  std::vector<Value> decided_value_;

  // Tallies.
  obs::EngineCounters counters_;
  std::uint64_t total_broadcasts_ = 0;
  std::uint64_t crashes_applied_ = 0;
  Round last_crash_round_ = 0;  // the crash window
  std::size_t num_alive_ = 0;
  std::uint32_t broadcaster_count_ = 0;

  Rng link_rng_;
  ExecutionLog log_;

  // kLocal adjacency bit rows (row i = neighbors of i), [i][word] by
  // address.  Empty under kGlobal.
  std::vector<std::uint64_t> adj_;

  // Every other word row, in one buffer (words_buf_); the members below
  // point into it.
  std::vector<std::uint64_t> words_buf_;
  std::uint64_t* alive_ = nullptr;
  std::uint64_t* halted_ = nullptr;
  std::uint64_t* dormant_ = nullptr;
  std::uint64_t* participating_ = nullptr;  // round-start snapshot
  std::uint64_t* sent_ = nullptr;
  std::uint64_t* decided_ = nullptr;
  /// Crash marks of the failure hooks.  Every round commits (and so
  /// zeroes) its marks: before-send marks at once, after-send marks after
  /// C_r (kGlobal) or before N_r (kLocal).
  std::uint64_t* crash_ = nullptr;
  /// D_r's advice, the one form C_r and last_cd() read: bit i set iff
  /// process i was told "+-".
  std::uint64_t* collision_ = nullptr;
  /// kLocal delivery: the live receivers in range of a sender this round
  /// (sent | the senders' adjacency rows, or sent | the first plane), the
  /// only ones it visits.  kLocal only.
  std::uint64_t* hear_ = nullptr;
  /// kCapture only: the receivers that captured a neighbour's message this
  /// round, and kCapturePlanes saturating neighbour-count planes (plane k,
  /// at planes_ + k * words_, holds the processes with at least k + 1
  /// broadcasting neighbours).
  std::uint64_t* got_ = nullptr;
  std::uint64_t* planes_ = nullptr;
  /// record_rounds only: the round's receivers, snapshotted at delivery
  /// (a kGlobal after-send crasher received, but is dead by record time).
  std::uint64_t* receivers_ = nullptr;
  /// kCapture only: D_r's view of the rows (alive, sent, got, the planes
  /// and adjacency).
  CaptureRows capture_rows_;

  /// The loss adversary's matrix; sized only once the adversary drops
  /// messages (a loss-free world never asks for it).
  DeliveryMatrix delivery_;
  /// N_r of the round in progress: every visited receiver's sorted
  /// multiset, appended in ascending receiver order.  Receiver i's is the
  /// recv_count_[i] messages from recv_off_[i]; a receiver delivery did
  /// not visit has count 0 and reads the empty multiset whatever its
  /// stale offset.  Loss-free cliques store the one multiset every
  /// participant observes once, at offset 0.  Reserved for n messages,
  /// grows to one round's deliveries; cleared, not freed, per round.  The
  /// capture channel sizes it once to 2n: receiver i's two slots from 2i.
  std::vector<Message> recv_buf_;
  std::vector<std::size_t> recv_off_;
};

}  // namespace ccd
