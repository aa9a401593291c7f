// LaneEngine: THE round executor.  One engine drives Definition 11's round
// structure -- W_r contention advice, M_r message assignment, N_r receive
// multisets, D_r collision-detector advice, C_r transitions, with the
// Section 3.3 crash adversary at both crash points -- over an arbitrary
// Topology.  The paper's single-hop model is the clique special case; the
// multihop extension its conclusion announces is every other graph.
// sim::Executor is a one-lane adapter over this class, multihop worlds
// drive it directly (ChannelModel::kCapture, CollisionScope::kLocal), and
// every sweep workload runs on it, so there is exactly one implementation
// of the round semantics.
//
// An engine holds 1..64 worlds ("lanes", one per seed of a sweep cell)
// that advance in lockstep, sharing one round counter.  One lane is the
// single-world engine; a sweep block of up to 64 seeds batches its
// bookkeeping.  Under kLocal each lane reads its own adjacency bitmask
// rows, so the lanes of a cell may run on different graphs (a
// random-geometric topology is drawn per seed); lanes on an identical
// graph share one copy of the rows.  kGlobal reads no graph at all: its
// topology is the clique over the lane's processes, and the engine builds
// no rows for it.
//
// Two orthogonal configuration axes (per EngineWorld, equal across lanes):
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
//               j ~ i}| with advice from the same DetectorSpec envelope
//               evaluated per live process, in one batched call
//               (OracleDetector::advise_local).
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
// Layout is struct-of-arrays in BOTH directions, one allocation per
// concern:
//
//  * process words -- per lane, the alive / halted / dormant /
//    participating / sent sets over processes, the crash marks and (kLocal
//    only) each adjacency row are word rows (util/bitwords.hpp):
//    ceil(n/64) `uint64_t`s, bits at or above n always zero (adjacency is
//    [lane][i][word]).  Every word row but adjacency, and every lane word,
//    lives in one buffer; the hot loops hoist each row's per-lane base
//    pointer.  They are the only form of a process set: the adversary
//    seams read them as BitViews (W_r's participants, the crash hooks'
//    live set, the loss adversary's senders, kLocal D_r's live set) and
//    write crash marks into one shared word row, and the loss adversary's
//    DeliveryMatrix is one receiver word row per sender.  The delivery
//    loops iterate SET BITS of `sent` (masked by `adjacency_row(i)` under
//    kLocal) instead of scanning all n senders per receiver, so clique
//    delivery costs O(broadcasters * n / 64) word operations, not O(n^2).
//
//  * lane words -- per process, one `uint64_t` whose bit l mirrors lane
//    l's alive / decided flag.  Which lanes still have an undecided
//    correct process is one AND-NOT per process for all 64 seeds at once.
//
//  * per-lane state -- one Lane struct per lane holds its per-process
//    advice, counts, sent messages and decisions, its tallies (counters,
//    broadcasts, crashes, crash window, survivors, result), its link RNG
//    and its log.  kLocal-only scratch (local counts c_i, the in-range
//    receivers) and the loss adversary's delivery matrix exist only where
//    that scope or channel reads them: a single-hop engine allocates no
//    kLocal scratch, and a loss-free one no matrix either.
//
// Receive multisets N_r[i] are not stored per lane or per receiver: each
// lane-round appends them, in ascending receiver order, to ONE flat
// engine-wide buffer, and receiver i reads a span of its count (the
// lane's recv_count[i], kept per lane for the detector and the
// accessors) from its offset.  A receiver delivery skips has count 0
// and so reads the empty multiset by construction -- never an earlier
// round's.
//
// A run allocates nothing per round once every buffer has reached its
// round size: the flat receive buffer starts with room for one loss-free
// clique round, the log reserves one decision per process, and the
// algorithms count distinct values in place (distinct_values).
//
// Determinism: each lane owns its OWN component objects (cm / cd / loss /
// fault / processes / link RNG) and the engine calls them in a fixed order
// with fixed arguments, so every RNG stream advances identically whatever
// lanes share a block -- a lane's execution, log and EngineCounters are
// the same as that world run alone (tests/engine/lane_differential_test.cpp
// pins this, and pins both against hashes frozen from the retired scalar
// engine).  Per-round cost follows events rather than n:
//
//  * masks and termination are word operations, not per-process scans;
//  * senders are iterated as set bits, never scanned; a capture receiver
//    picks its captured neighbour straight from the set bits of
//    `sent & adjacency`;
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
//    unobservable, and an engine whose lanes all deliver everything
//    never allocates the matrix; any other adversary gets a zeroed word
//    matrix and the sent set, and delivery reads only the sender rows;
//  * both crash points run only inside the adversary's crash window,
//    r <= FailureAdversary::last_crash_round(); a commit walks the set
//    bits of `crash & alive`, and kGlobal's C_r masks the after-send marks
//    straight out of the participants' words.
//
// Divergence rule: lanes share the round counter but not a fate.  A lane
// that terminates (all correct processes decided, or the caller retires it)
// drops out of the active mask and is never stepped again; the remaining
// lanes keep advancing.  Worlds without processes (n = 0) start retired:
// there is nothing to step, and every process is vacuously decided.
// Worlds whose process count diverges per seed (phase-2 consensus among a
// seed-dependent head count) run as one-lane engines.
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

/// Everything one lane drives: the paper's "system" (World) plus the
/// communication graph and the channel/detector-scope configuration.
struct EngineWorld {
  World world;          ///< processes + cm/cd/loss/fault (null = neutral)
  /// kLocal's communication graph; lanes may share one.  kGlobal reads
  /// none (its graph is the clique over the processes), so single-hop
  /// callers leave it null; one given under kGlobal must be that clique.
  std::shared_ptr<const Topology> topology;
  ChannelModel channel = ChannelModel::kMatrix;
  CollisionScope scope = CollisionScope::kGlobal;
  MhLinkModel link;     ///< kCapture physics; ignored by kMatrix
  std::uint64_t link_seed = 0;  ///< kCapture RNG stream seed
};

struct EngineOptions {
  /// Record per-round traces (transmission/cd/cm) in every lane's log.
  /// Decisions and crashes are always recorded.  Off = the mode sweeps
  /// run in.
  bool record_rounds = false;
  /// Also record per-process views (needs record_rounds).
  bool record_views = false;
  /// run(): retire a lane as soon as every non-crashed process decided.
  /// Callers driving step() directly (flood / MIS budget loops) retire
  /// lanes themselves.
  bool stop_when_all_decided = true;
};

struct RunResult {
  bool all_correct_decided = false;
  Round last_decision_round = 0;  ///< max decision round among correct procs
  Round rounds_executed = 0;
  std::uint32_t num_crashed = 0;
};

/// Max lanes per engine: one bit of a uint64_t lane word per seed.
inline constexpr std::size_t kLaneWidth = 64;

class LaneEngine {
 public:
  /// All worlds must agree on process count, channel and scope; each keeps
  /// its own topology, components, link model and link_seed.  kCapture
  /// needs kLocal.
  /// 1 <= worlds.size() <= kLaneWidth.
  explicit LaneEngine(std::vector<EngineWorld> worlds,
                      EngineOptions options = {});
  /// The single-world engine: one lane.
  explicit LaneEngine(EngineWorld world, EngineOptions options = {});

  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return n_; }
  Round current_round() const { return round_; }
  /// Lane l's graph; kLocal lanes only (a kGlobal lane may carry none).
  const Topology& topology(std::size_t l) const {
    return *worlds_[l].topology;
  }

  /// Advance every active lane exactly one round (lockstep).
  void step();

  /// Step until every lane retired (all correct processes decided, when
  /// stop_when_all_decided) or max_rounds elapsed; the stop condition is
  /// evaluated before each step.  Retires every lane, so result(l) is
  /// valid afterwards.
  void run(Round max_rounds);

  /// Lanes still being stepped (bit l = lane l).
  std::uint64_t active_mask() const { return active_; }
  bool lane_active(std::size_t l) const { return (active_ >> l) & 1u; }

  /// Stop stepping a lane and snapshot its RunResult (budget loops call
  /// this when a lane meets its workload-specific completion condition).
  void retire(std::size_t l);

  /// Valid after the lane retired (or run() returned).
  const RunResult& result(std::size_t l) const { return lane_[l].result; }

  const World& world(std::size_t l) const { return worlds_[l].world; }
  Process& process(std::size_t l, std::size_t i) {
    return *worlds_[l].world.processes[i];
  }
  bool alive(std::size_t l, std::size_t i) const {
    return (alive_lw_[i] >> l) & 1u;
  }
  std::size_t num_alive(std::size_t l) const { return lane_[l].num_alive; }
  /// Live processes of lane l that are not dormant (Process::dormant()).
  std::size_t num_awake(std::size_t l) const;
  /// Crashes the failure adversary actually landed (alive targets only).
  std::uint64_t crashes_applied(std::size_t l) const {
    return lane_[l].crashes_applied;
  }
  /// Broadcasts attempted over all executed rounds (the per-node energy
  /// budget of the Section 1.1 literature).
  std::uint64_t total_broadcasts(std::size_t l) const {
    return lane_[l].total_broadcasts;
  }
  bool decided(std::size_t l, std::size_t i) const {
    return lane_[l].decided_value[i] != kNoValue;
  }
  Value decision(std::size_t l, std::size_t i) const {
    return lane_[l].decided_value[i];
  }
  /// True iff every non-crashed process of lane l has decided.
  bool all_correct_decided(std::size_t l) const;
  const ExecutionLog& log(std::size_t l) const { return lane_[l].log; }

  /// Telemetry tallies for lane l's execution so far.  Plain engine-local
  /// increments (no atomics in the hot loop) and -- like the execution
  /// itself -- a pure function of the EngineWorld, so counter totals are
  /// deterministic and shard merges sum them exactly.  Never feeds the
  /// Aggregator: reports stay byte-identical with telemetry on or off.
  const obs::EngineCounters& counters(std::size_t l) const {
    return lane_[l].counters;
  }

  /// Lane l's observations of process i in the last executed round.
  std::uint32_t last_receive_count(std::size_t l, std::size_t i) const {
    return lane_[l].recv_count[i];
  }
  /// c_i: the global broadcaster count under kGlobal.
  std::uint32_t last_local_broadcasters(std::size_t l, std::size_t i) const {
    return local_ ? lane_[l].local_c[i] : lane_[l].broadcaster_count;
  }
  CdAdvice last_cd(std::size_t l, std::size_t i) const {
    return lane_[l].cd_advice[i];
  }

 private:
  /// Everything the engine keeps per lane besides its word rows.
  struct Lane {
    Lane(std::size_t n, bool local, bool record_views, std::uint64_t seed);

    // Per-process advice, counts, messages and decisions ([i]).
    std::vector<CmAdvice> cm_advice;
    std::vector<CdAdvice> cd_advice;
    std::vector<std::uint32_t> recv_count;
    std::vector<std::uint32_t> local_c;  // kLocal only (empty otherwise)
    std::vector<Message> sent_msg;       // sent bit = valid
    std::vector<Value> decided_value;

    // Tallies.
    obs::EngineCounters counters;
    std::uint64_t total_broadcasts = 0;
    std::uint64_t crashes_applied = 0;
    Round last_crash_round = 0;  // the crash window
    std::size_t num_alive = 0;
    std::uint32_t broadcaster_count = 0;
    RunResult result;

    std::size_t adj_base = 0;  // kLocal: this lane's rows start here
    Rng link_rng;
    ExecutionLog log;
  };

  std::size_t lane_base(std::size_t l) const { return l * words_; }
  BitView view(const std::uint64_t* row) const { return {{row, words_}, n_}; }
  const std::uint64_t* adj_row(std::size_t l, std::size_t i) const {
    return &adj_[lane_[l].adj_base + i * words_];
  }
  void commit_crashes(std::size_t l, Round r);
  void lane_round(std::size_t l, Round r);
  void deliver_matrix_global(std::size_t l, Round r);
  void deliver_matrix_local(std::size_t l, Round r);
  void deliver_capture(std::size_t l);
  const std::uint64_t* receivers_in_range(std::size_t l);
  void close_multiset(std::size_t l, std::size_t i, std::size_t off);
  std::span<const Message> received(std::size_t l, std::size_t i) const;
  void note_flags(std::size_t l, std::size_t i);
  void record_round(std::size_t l, const std::uint64_t* receivers);

  std::size_t lanes_ = 0;
  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< process words per lane row: ceil(n/64)
  EngineOptions options_;
  bool local_ = false;     ///< CollisionScope::kLocal
  Round round_ = 0;
  std::uint64_t active_ = 0;

  std::vector<EngineWorld> worlds_;
  std::vector<Lane> lane_;

  // kLocal adjacency bit rows per lane (row i = neighbors of i),
  // [lane][i][word] by address; lanes on an identical graph share one copy.
  // Empty under kGlobal.
  std::vector<std::uint64_t> adj_;

  // Every word row and lane word, in one buffer (words_buf_); the members
  // below point into it.
  std::vector<std::uint64_t> words_buf_;
  // Process words, per lane ([lanes][words_], flattened).
  std::uint64_t* alive_pw_ = nullptr;
  std::uint64_t* halted_pw_ = nullptr;
  std::uint64_t* dormant_pw_ = nullptr;
  std::uint64_t* participating_pw_ = nullptr;  // round-start snapshot
  std::uint64_t* sent_pw_ = nullptr;
  // Lane words, per process (bit l = lane l).
  std::uint64_t* alive_lw_ = nullptr;
  std::uint64_t* decided_lw_ = nullptr;
  /// Crash marks of the failure hooks ([words_]).  Every lane-round commits
  /// (and so zeroes) its own marks before the next lane-round runs:
  /// before-send marks at once, after-send marks after C_r (kGlobal) or
  /// before N_r (kLocal).
  std::uint64_t* crash_ = nullptr;
  /// kLocal delivery: the live receivers in range of a sender this round
  /// (sent | the senders' adjacency rows), the only ones it visits.
  /// kLocal only.
  std::uint64_t* hear_ = nullptr;
  /// record_rounds only: the round's receivers, snapshotted at delivery
  /// (a kGlobal after-send crasher received, but is dead by record time).
  std::uint64_t* receivers_ = nullptr;

  // Shared scratch (consumed within one lane's round).
  /// The loss adversary's matrix; sized only once a lane's adversary
  /// drops messages (a loss-free lane never asks for it).
  DeliveryMatrix delivery_;
  /// N_r of the lane-round in progress: every visited receiver's sorted
  /// multiset, appended in ascending receiver order.  Receiver i's is the
  /// recv_count[i] messages from recv_off_[i]; a receiver delivery did
  /// not visit has count 0 and reads the empty multiset whatever its
  /// stale offset.  Loss-free cliques store the one multiset every
  /// participant observes once, at offset 0.  Reserved for n messages,
  /// grows to one round's deliveries; cleared, not freed, per lane-round.
  std::vector<Message> recv_buf_;
  std::vector<std::size_t> recv_off_;
};

}  // namespace ccd
