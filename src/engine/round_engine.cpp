#include "engine/round_engine.hpp"

#include <algorithm>
#include <cassert>

#include "cm/no_cm.hpp"
#include "net/no_loss.hpp"

namespace ccd {

namespace {

[[maybe_unused]] bool is_clique(const Topology& topo) {
  for (std::size_t i = 0; i < topo.size(); ++i) {
    if (topo.degree(i) + 1 != topo.size()) return false;
  }
  return true;
}

}  // namespace

RoundEngine::RoundEngine(EngineWorld world, EngineOptions options)
    : world_(std::move(world)),
      options_(options),
      log_(world_.world.processes.size(),
           options.record_views && options.record_rounds),
      link_rng_(world_.link_seed) {
  const std::size_t n = world_.world.processes.size();
  assert(world_.topology.size() == n);
  // The global oracle is only meaningful where every broadcaster is a
  // neighbor of every receiver; non-clique graphs must use kLocal.
  assert(world_.scope == CollisionScope::kLocal || is_clique(world_.topology));
  assert(world_.world.initial_values.empty() ||
         world_.world.initial_values.size() == n);
  // Degenerate-world robustness: a caller-assembled World may omit
  // components.  Substitute the neutral element for each rather than
  // dereferencing null mid-round: NoCM (everyone active), the NoCD
  // detector (no information), a perfect channel, no failures.
  if (!world_.world.cm) world_.world.cm = std::make_unique<NoCm>();
  if (!world_.world.cd) {
    world_.world.cd = std::make_unique<OracleDetector>(DetectorSpec::NoCD(),
                                                       make_truthful_policy());
  }
  if (!world_.world.loss) world_.world.loss = std::make_unique<NoLoss>();
  if (!world_.world.fault) world_.world.fault = std::make_unique<NoFailures>();

  num_alive_ = n;
  alive_.assign(n, true);
  participating_.assign(n, false);
  decided_value_.assign(n, kNoValue);
  crash_mask_.assign(n, false);
  sent_flag_.assign(n, false);
  sent_msg_.resize(n);
  recv_.resize(n);
  recv_count_.assign(n, 0);
  local_c_.assign(n, 0);
  cm_advice_.reserve(n);
  cd_advice_.assign(n, CdAdvice::kNull);
  broadcasting_neighbors_.reserve(n > 0 ? world_.topology.max_degree() : 0);
  if (world_.channel == ChannelModel::kMatrix) delivery_.reset(n, false);
  for (std::size_t i = 0; i < world_.world.initial_values.size(); ++i) {
    log_.set_initial_value(static_cast<ProcessId>(i),
                           world_.world.initial_values[i]);
  }
}

bool RoundEngine::all_correct_decided() const {
  for (std::size_t i = 0; i < size(); ++i) {
    if (alive_[i] && decided_value_[i] == kNoValue) return false;
  }
  return true;
}

void RoundEngine::commit_crashes(Round r) {
  // Consumes the marks, so the mask is all-false again whenever no hook's
  // marks are pending.
  for (std::size_t i = 0; i < crash_mask_.size(); ++i) {
    if (!crash_mask_[i]) continue;
    crash_mask_[i] = false;
    if (alive_[i]) {
      alive_[i] = false;
      participating_[i] = false;
      --num_alive_;
      ++crashes_applied_;
      log_.record_crash(static_cast<ProcessId>(i), r);
    }
  }
}

void RoundEngine::deliver_matrix(Round r) {
  const std::size_t n = size();
  // N_r: delivery decided by the loss adversary; integrity/no-duplication
  // hold by construction (a receiver gets at most one copy of each sent
  // message), self-delivery is enforced here (Definition 11, constraint 5).
  delivery_.reset(n, false);
  world_.world.loss->decide_delivery(r, sent_flag_, delivery_);
  for (std::size_t j = 0; j < n; ++j) {
    if (sent_flag_[j]) delivery_.set(j, j, true);
  }
  if (world_.scope == CollisionScope::kGlobal) {
    // Clique: every sender is adjacent to every receiver, so the adjacency
    // mask is the identity and the receiver set is the participation mask.
    for (std::size_t i = 0; i < n; ++i) {
      recv_[i].clear();
      recv_count_[i] = 0;
      local_c_[i] = broadcaster_count_;
      if (!participating_[i]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (sent_flag_[j] && delivery_.delivered(i, j)) {
          recv_[i].push_back(*sent_msg_[j]);
        }
      }
      // Receive sets are multisets; sort for a canonical representation so
      // views compare structurally (Definition 12).
      std::sort(recv_[i].begin(), recv_[i].end());
      recv_count_[i] = static_cast<std::uint32_t>(recv_[i].size());
      counters_.messages_delivered += recv_count_[i];
    }
  } else {
    // Arbitrary graph: the adversary's matrix is masked by adjacency, and
    // the ground-truth contention c_i is counted over the neighborhood
    // whether or not anything was delivered.
    for (std::size_t i = 0; i < n; ++i) {
      recv_[i].clear();
      if (!alive_[i]) {
        recv_count_[i] = 0;
        local_c_[i] = 0;
        continue;
      }
      std::uint32_t c = 0;
      if (sent_flag_[i]) {
        ++c;                              // own broadcast counts toward c_i
        recv_[i].push_back(*sent_msg_[i]);  // and is always self-delivered
      }
      for (std::uint32_t j : world_.topology.neighbors(i)) {
        if (!sent_flag_[j]) continue;
        ++c;
        if (delivery_.delivered(i, j)) recv_[i].push_back(*sent_msg_[j]);
      }
      std::sort(recv_[i].begin(), recv_[i].end());
      recv_count_[i] = static_cast<std::uint32_t>(recv_[i].size());
      counters_.messages_delivered += recv_count_[i];
      local_c_[i] = c;
    }
  }
}

void RoundEngine::deliver_capture() {
  const std::size_t n = size();
  // Capture-effect physics, per live receiver over its broadcasting
  // neighbors.  Dead processes receive nothing; long-dead processes never
  // appear in any c_i because they no longer broadcast.
  for (std::size_t i = 0; i < n; ++i) {
    recv_[i].clear();
    if (!alive_[i]) {
      recv_count_[i] = 0;
      local_c_[i] = 0;
      continue;
    }
    broadcasting_neighbors_.clear();
    for (std::uint32_t j : world_.topology.neighbors(i)) {
      if (sent_msg_[j].has_value()) broadcasting_neighbors_.push_back(j);
    }
    std::uint32_t local_c =
        static_cast<std::uint32_t>(broadcasting_neighbors_.size());
    if (sent_msg_[i].has_value()) {
      ++local_c;                          // own broadcast counts toward c_i
      recv_[i].push_back(*sent_msg_[i]);  // and is always self-delivered
    }
    if (broadcasting_neighbors_.size() == 1) {
      if (link_rng_.chance(world_.link.p_single)) {
        recv_[i].push_back(*sent_msg_[broadcasting_neighbors_.front()]);
      }
    } else if (broadcasting_neighbors_.size() > 1) {
      if (link_rng_.chance(world_.link.p_capture)) {
        const std::uint32_t j = broadcasting_neighbors_[link_rng_.below(
            broadcasting_neighbors_.size())];
        recv_[i].push_back(*sent_msg_[j]);
      }
    }
    std::sort(recv_[i].begin(), recv_[i].end());
    recv_count_[i] = static_cast<std::uint32_t>(recv_[i].size());
    counters_.messages_delivered += recv_count_[i];
    local_c_[i] = local_c;
  }
}

void RoundEngine::step() {
  const std::size_t n = size();
  const Round r = ++round_;
  const bool local = world_.scope == CollisionScope::kLocal;
  ++counters_.rounds;

  // Participation mask for the contention manager: crashed and halted
  // processes are out of the protocol.
  for (std::size_t i = 0; i < n; ++i) {
    participating_[i] = alive_[i] && !world_.world.processes[i]->halted();
  }

  // W_r: contention advice.
  world_.world.cm->advise(r, participating_, cm_advice_);
  cm_advice_.resize(n, CmAdvice::kPassive);
  ++counters_.cm_advice_calls;

  // Both crash points run only inside the adversary's crash window; past
  // last_crash_round() its hooks mark nobody and draw nothing.
  const bool faults = r <= world_.world.fault->last_crash_round();

  // Crash point A (kBeforeSend): marked processes are silent from round r
  // on.
  if (faults) {
    world_.world.fault->crash_before_send(r, alive_, crash_mask_);
    const std::uint64_t crashes_pre_a = crashes_applied_;
    commit_crashes(r);
    counters_.crashes_before_send += crashes_applied_ - crashes_pre_a;
  }

  // M_r: message assignments.
  sent_flag_.assign(n, false);
  sent_msg_.assign(n, std::nullopt);
  broadcaster_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!participating_[i]) continue;
    sent_msg_[i] = world_.world.processes[i]->on_send(r, cm_advice_[i]);
    if (sent_msg_[i].has_value()) {
      sent_flag_[i] = true;
      ++broadcaster_count_;
      ++total_broadcasts_;
    }
  }

  // Crash point B (kAfterSend): the round-r message is out, the transition
  // is not taken (Definition 11, constraint 2's fail branch).  kLocal
  // commits immediately -- a dead radio leaves the channel before
  // delivery; kGlobal defers so the crasher's round-r view still forms.
  const std::uint64_t crashes_pre_b = crashes_applied_;
  if (faults) {
    world_.world.fault->crash_after_send(r, alive_, crash_mask_);
    if (local) commit_crashes(r);
  }

  // N_r: receive multisets.
  if (world_.channel == ChannelModel::kMatrix) {
    deliver_matrix(r);
  } else {
    deliver_capture();
  }

  counters_.messages_sent += broadcaster_count_;

  // D_r: collision detector advice within the class envelope -- one global
  // oracle call on a clique, per-neighborhood (c_i, T(i)) otherwise.
  if (!local) {
    world_.world.cd->advise(r, broadcaster_count_, recv_count_, cd_advice_);
    ++counters_.cd_advice_calls;
    if (broadcaster_count_ >= 2) ++counters_.collisions;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (alive_[i]) {
        cd_advice_[i] = world_.world.cd->advise_local(
            r, static_cast<ProcessId>(i), local_c_[i], recv_count_[i]);
        ++counters_.cd_advice_calls;
        if (local_c_[i] >= 2) ++counters_.collisions;
      } else {
        cd_advice_[i] = CdAdvice::kNull;
      }
    }
  }
  world_.world.cm->observe(r, broadcaster_count_);

  // C_r: transitions (skipped for processes crashing this round).
  for (std::size_t i = 0; i < n; ++i) {
    if (local) {
      if (!alive_[i] || world_.world.processes[i]->halted()) continue;
    } else {
      if (!participating_[i] || crash_mask_[i]) continue;
    }
    world_.world.processes[i]->on_receive(r, recv_[i], cd_advice_[i],
                                          cm_advice_[i]);
    if (decided_value_[i] == kNoValue && world_.world.processes[i]->decided()) {
      decided_value_[i] = world_.world.processes[i]->decision();
      log_.record_decision(static_cast<ProcessId>(i), r, decided_value_[i]);
    }
  }
  if (!local && faults) commit_crashes(r);
  counters_.crashes_after_send += crashes_applied_ - crashes_pre_b;

  // Record the round.
  if (options_.record_rounds) {
    TransmissionRound tr;
    tr.broadcaster_count = broadcaster_count_;
    tr.receive_count = recv_count_;
    std::vector<RoundView> views;
    if (log_.views_recorded()) {
      views.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        views[i].sent = sent_msg_[i];
        views[i].received = recv_[i];
        views[i].cd = cd_advice_[i];
        views[i].cm = cm_advice_[i];
        views[i].crashed = !alive_[i];
      }
    }
    log_.push_round(std::move(tr), cd_advice_, cm_advice_, std::move(views));
  }
}

RunResult RoundEngine::run(Round max_rounds) {
  RunResult result;
  // n = 0: no process can ever send, decide or crash; every consensus
  // property holds vacuously.  Return instead of spinning max_rounds empty
  // rounds (which callers with stop_when_all_decided = false would hit).
  if (size() == 0) {
    result.all_correct_decided = true;
    return result;
  }
  while (round_ < max_rounds) {
    if (options_.stop_when_all_decided && all_correct_decided()) break;
    step();
  }
  result.rounds_executed = round_;
  result.all_correct_decided = all_correct_decided();
  for (const DecisionRecord& d : log_.decisions()) {
    if (alive_[d.process] && d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  for (bool a : alive_) {
    if (!a) ++result.num_crashed;
  }
  return result;
}

}  // namespace ccd
