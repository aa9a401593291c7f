// LaneEngine: the RoundEngine's batched sibling -- up to 64 worlds of one
// sweep cell ("lanes", one per seed) advance through Definition 11's
// W/M/N/D/C round structure in lockstep, sharing one round counter.  Each
// lane reads its own adjacency bitmask rows, so the lanes of a cell may run
// on different graphs (a random-geometric topology is drawn per seed);
// lanes on an identical graph share one copy of the rows.
//
// Layout is struct-of-arrays in BOTH directions:
//
//  * process words -- per lane, the alive / halted / participating / sent
//    flags over processes, and each adjacency row, are packed ceil(n/64)
//    `uint64_t`s wide (adjacency is [lane][i][word]).  The delivery loops
//    iterate SET BITS of `sent & adjacency_row(i)` instead of scanning all
//    n senders per receiver, which collapses the scalar engine's O(n^2)
//    clique delivery masking to O(broadcasters * n / 64) word operations.
//
//  * lane words -- per process, one `uint64_t` whose bit l mirrors lane
//    l's alive / decided flag.  Cross-lane sweeps (which lanes still have
//    an undecided correct process?) are one AND-NOT per process for all 64
//    seeds at once, so per-lane termination divergence costs O(n) words
//    per round, not O(n * lanes) flag tests.
//
// EQUIVALENCE CONTRACT (the whole point -- see
// tests/engine/lane_differential_test.cpp): a lane's observable execution
// is byte-for-byte the scalar RoundEngine's.  Each lane owns its OWN
// component objects (cm / cd / loss / fault / processes / link RNG), built
// exactly as the scalar path builds them, and the engine performs the SAME
// component calls with the SAME arguments in the SAME order as
// RoundEngine::step() would per lane -- so every RNG stream advances
// identically and reports, golden FNV-1a hashes, and per-run EngineCounters
// are exact.  The speedup comes only from engine-owned bookkeeping, whose
// per-round cost follows events rather than n:
//
//  * bitmask words replace vector<bool> scans (masks, termination);
//  * senders are iterated as set bits, never scanned; a capture receiver
//    picks its captured neighbour straight from the set bits of
//    `sent & adjacency`;
//  * per-round traces are not recorded (reports never read them; the
//    scalar consensus adapter records them unconditionally);
//  * halt state is mirrored in the halted word, refreshed only inside the
//    process's own on_send/on_receive (the one place it can change) and
//    written only when it flips;
//  * NoLoss (LossAdversary::always_delivers) skips the delivery matrix
//    entirely -- it is stateless and RNG-free, so skipping it is
//    unobservable;
//  * both crash points run only inside the adversary's crash window,
//    r <= FailureAdversary::last_crash_round() -- the same rule the scalar
//    engine follows.
//
// Divergence rule: lanes share the round counter but not a fate.  A lane
// that terminates (all correct processes decided, or the caller retires it)
// drops out of the active mask and is never stepped again; the remaining
// lanes keep advancing.  Worlds whose process count itself diverges per
// seed (phase-2 consensus among a seed-dependent head count) or that have
// none (n = 0) do not enter the lane path at all -- exp::LaneExecutor
// routes them to the scalar engine (the "scalar tail", which also absorbs
// the S mod 64 remainder of a cell's seeds).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/round_engine.hpp"
#include "multihop/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace ccd {

/// Max lanes per engine: one bit of a uint64_t lane word per seed.
inline constexpr std::size_t kLaneWidth = 64;

struct LaneOptions {
  /// run(): retire a lane as soon as every non-crashed process decided
  /// (the scalar engine's stop_when_all_decided).  Callers driving step()
  /// directly (flood / MIS budget loops) retire lanes themselves.
  bool stop_when_all_decided = true;
};

class LaneEngine {
 public:
  /// All worlds must agree on process count, channel and scope; each keeps
  /// its own topology, components, link model and link_seed.
  /// 1 <= worlds.size() <= kLaneWidth, n >= 1.
  explicit LaneEngine(std::vector<EngineWorld> worlds, LaneOptions options = {});

  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return n_; }
  Round current_round() const { return round_; }
  const Topology& topology(std::size_t l) const { return worlds_[l].topology; }

  /// Advance every active lane exactly one round (lockstep).
  void step();

  /// Consensus driving: mirror RoundEngine::run(max_rounds) per lane --
  /// the stop condition is evaluated before each step, lanes retire
  /// individually, and results() afterwards equal the scalar engine's
  /// RunResult per lane.
  void run(Round max_rounds);

  /// Lanes still being stepped (bit l = lane l).
  std::uint64_t active_mask() const { return active_; }
  bool lane_active(std::size_t l) const { return (active_ >> l) & 1u; }

  /// Stop stepping a lane and snapshot its RunResult (budget loops call
  /// this when a lane meets its workload-specific completion condition).
  void retire(std::size_t l);

  /// Valid after the lane retired (or run() returned).
  const RunResult& result(std::size_t l) const { return results_[l]; }

  const World& world(std::size_t l) const { return worlds_[l].world; }
  Process& process(std::size_t l, std::size_t i) {
    return *worlds_[l].world.processes[i];
  }
  bool alive(std::size_t l, std::size_t i) const {
    return (alive_lw_[i] >> l) & 1u;
  }
  std::size_t num_alive(std::size_t l) const { return num_alive_[l]; }
  std::uint64_t crashes_applied(std::size_t l) const {
    return crashes_applied_[l];
  }
  std::uint64_t total_broadcasts(std::size_t l) const {
    return total_broadcasts_[l];
  }
  bool all_correct_decided(std::size_t l) const;
  const ExecutionLog& log(std::size_t l) const { return logs_[l]; }
  const obs::EngineCounters& counters(std::size_t l) const {
    return counters_[l];
  }

 private:
  std::size_t lane_base(std::size_t l) const { return l * words_; }
  const std::uint64_t* adj_row(std::size_t l, std::size_t i) const {
    return &adj_[adj_base_[l] + i * words_];
  }
  void commit_crashes(std::size_t l, Round r);
  void lane_round(std::size_t l, Round r);
  void deliver_matrix_global(std::size_t l, Round r);
  void deliver_matrix_local(std::size_t l, Round r);
  void deliver_capture(std::size_t l);
  void note_halt_state(std::size_t l, std::size_t i);

  std::size_t lanes_ = 0;
  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< process words per lane row: ceil(n/64)
  LaneOptions options_;
  Round round_ = 0;
  std::uint64_t active_ = 0;

  std::vector<EngineWorld> worlds_;
  std::vector<Rng> link_rng_;

  // Adjacency bit rows per lane (row i = neighbors of i), [lane][i][word]
  // by address; lanes on an identical graph share one copy.
  std::vector<std::uint64_t> adj_;
  std::vector<std::size_t> adj_base_;  // lane l's rows start here

  // Process words, per lane ([lanes][words_], flattened).
  std::vector<std::uint64_t> alive_pw_;
  std::vector<std::uint64_t> halted_pw_;
  std::vector<std::uint64_t> participating_pw_;  // round-start snapshot
  std::vector<std::uint64_t> sent_pw_;

  // Lane words, per process (bit l = lane l).
  std::vector<std::uint64_t> alive_lw_;
  std::vector<std::uint64_t> decided_lw_;

  // Per-lane mirrors handed to components (identical values to the scalar
  // engine's vectors; alive/participating are event-maintained, not
  // rebuilt per round).
  std::vector<std::vector<bool>> alive_vb_;
  std::vector<std::vector<bool>> participating_vb_;
  std::vector<std::vector<bool>> sent_vb_;
  std::vector<std::vector<bool>> crash_mask_vb_;
  std::vector<std::vector<CmAdvice>> cm_advice_;
  std::vector<std::vector<CdAdvice>> cd_advice_;
  std::vector<std::vector<std::uint32_t>> recv_count_;
  std::vector<std::vector<std::uint32_t>> local_c_;
  std::vector<std::vector<Message>> sent_msg_;          // [l][i], sent bit = valid
  std::vector<std::vector<std::vector<Message>>> recv_;  // [l][i] multisets

  // Per-lane tallies.
  std::vector<obs::EngineCounters> counters_;
  std::vector<ExecutionLog> logs_;
  std::vector<std::vector<Value>> decided_value_;
  std::vector<std::uint64_t> total_broadcasts_;
  std::vector<std::uint64_t> crashes_applied_;
  std::vector<Round> last_crash_round_;  // each lane's crash window
  std::vector<std::size_t> num_alive_;
  std::vector<std::uint32_t> broadcaster_count_;
  std::vector<RunResult> results_;

  // Shared scratch (consumed within one lane's delivery phase).
  DeliveryMatrix delivery_;
  /// Loss-free clique fast path: with a statically-all-delivering loss
  /// model every participating receiver observes the SAME multiset, so
  /// deliver_matrix_global builds it once here and C_r hands every
  /// on_receive this shared view instead of a per-receiver copy.  Valid
  /// only within the lane_round that set recv_shared_.
  std::vector<Message> shared_recv_;
  bool recv_shared_ = false;
};

}  // namespace ccd
