#include "engine/lane_engine.hpp"

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

LaneEngine::Lane::Lane(std::size_t n, bool local, bool record_views,
                       std::uint64_t seed)
    : cd_advice(n, CdAdvice::kNull),
      recv_count(n, 0),
      local_c(local ? n : 0, 0),
      sent_msg(n),
      decided_value(n, kNoValue),
      num_alive(n),
      link_rng(seed),
      log(n, record_views) {
  cm_advice.reserve(n);
}

LaneEngine::LaneEngine(std::vector<EngineWorld> worlds, EngineOptions options)
    : lanes_(worlds.size()), options_(options), worlds_(std::move(worlds)) {
  assert(lanes_ >= 1 && lanes_ <= kLaneWidth);
  n_ = worlds_[0].world.processes.size();
  words_ = word_count(n_);
  local_ = worlds_[0].scope == CollisionScope::kLocal;
  assert(local_ || worlds_[0].channel == ChannelModel::kMatrix);
  lane_.reserve(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    const EngineWorld& ew = worlds_[l];
    assert(ew.world.processes.size() == n_);
    assert(ew.channel == worlds_[0].channel);
    assert(ew.scope == worlds_[0].scope);
    assert(ew.world.initial_values.empty() ||
           ew.world.initial_values.size() == n_);
    lane_.emplace_back(n_, local_,
                       options_.record_rounds && options_.record_views,
                       ew.link_seed);
    if (!local_) {
      // kGlobal reads no graph; one given must be the clique.
      assert(!ew.topology ||
             (ew.topology->size() == n_ && is_clique(*ew.topology)));
      continue;
    }
    assert(ew.topology && ew.topology->size() == n_);
    // A lane on the same graph as the previous lane reads that lane's rows
    // (a fixed shape is one graph for the whole block), which keeps large
    // blocks' adjacency in cache.
    if (l > 0 && (ew.topology == worlds_[l - 1].topology ||
                  *ew.topology == *worlds_[l - 1].topology)) {
      lane_[l].adj_base = lane_[l - 1].adj_base;
      continue;
    }
    lane_[l].adj_base = adj_.size();
    adj_.resize(adj_.size() + n_ * words_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::uint64_t* row = &adj_[lane_[l].adj_base + i * words_];
      for (std::uint32_t j : ew.topology->neighbors(i)) {
        row[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }

  active_ = lanes_ == kLaneWidth ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lanes_) - 1;

  // One buffer for every word row: five process-word rows per lane, two
  // lane words per process, then the crash marks, kLocal's in-range
  // receivers and record_rounds' receivers snapshot.
  const std::size_t rows = lanes_ * words_;
  words_buf_.assign(5 * rows + 2 * n_ + words_ + (local_ ? words_ : 0) +
                        (options_.record_rounds ? words_ : 0),
                    0);
  std::uint64_t* next = words_buf_.data();
  auto take = [&next](std::size_t count) {
    std::uint64_t* row = next;
    next += count;
    return row;
  };
  alive_pw_ = take(rows);
  halted_pw_ = take(rows);
  dormant_pw_ = take(rows);
  participating_pw_ = take(rows);
  sent_pw_ = take(rows);
  alive_lw_ = take(n_);
  decided_lw_ = take(n_);
  crash_ = take(words_);
  hear_ = take(local_ ? words_ : 0);
  receivers_ = take(options_.record_rounds ? words_ : 0);
  std::fill(alive_lw_, alive_lw_ + n_, active_);

  for (std::size_t l = 0; l < lanes_; ++l) {
    World& w = worlds_[l].world;
    // Degenerate-world robustness: a caller-assembled world may omit
    // components.  Substitute the neutral element for each rather than
    // dereferencing null mid-round: NoCM (everyone active), the NoCD
    // detector (no information), a perfect channel, no failures.
    if (!w.cm) w.cm = std::make_unique<NoCm>();
    if (!w.cd) {
      w.cd = std::make_unique<OracleDetector>(DetectorSpec::NoCD(),
                                              make_truthful_policy());
    }
    if (!w.loss) w.loss = std::make_unique<NoLoss>();
    if (!w.fault) w.fault = std::make_unique<NoFailures>();
    lane_[l].last_crash_round = w.fault->last_crash_round();
    for (std::size_t i = 0; i < w.initial_values.size(); ++i) {
      lane_[l].log.set_initial_value(static_cast<ProcessId>(i),
                                     w.initial_values[i]);
    }

    std::span<std::uint64_t> alive(alive_pw_ + lane_base(l), words_);
    std::span<std::uint64_t> halted(halted_pw_ + lane_base(l), words_);
    std::span<std::uint64_t> dormant(dormant_pw_ + lane_base(l), words_);
    for (std::size_t i = 0; i < n_; ++i) {
      set_bit(alive, i);
      if (w.processes[i]->halted()) set_bit(halted, i);
      if (w.processes[i]->dormant()) set_bit(dormant, i);
    }
  }
  // A loss-free clique round shares one multiset of at most n broadcasts;
  // a lossy one gives each of up to n receivers its own, n^2 messages at
  // most, reserved up front up to n = 64 (larger engines grow on demand
  // rather than reserve a worst case the CMs rarely reach).
  const bool lossy_clique =
      !local_ && std::any_of(worlds_.begin(), worlds_.end(),
                             [](const EngineWorld& ew) {
                               return !ew.world.loss->always_delivers();
                             });
  constexpr std::size_t kLossyReserveCap = 64 * 64;
  recv_buf_.reserve(lossy_clique ? std::min(n_ * n_, kLossyReserveCap) : n_);
  recv_off_.assign(n_, 0);
  // n = 0: no process can ever send, decide or crash; every lane is done
  // before its first round.
  if (n_ == 0) {
    for (std::size_t l = 0; l < lanes_; ++l) retire(l);
  }
}

LaneEngine::LaneEngine(EngineWorld world, EngineOptions options)
    : LaneEngine(
          [&] {
            std::vector<EngineWorld> lane;
            lane.push_back(std::move(world));
            return lane;
          }(),
          options) {}

bool LaneEngine::all_correct_decided(std::size_t l) const {
  const std::uint64_t bit = std::uint64_t{1} << l;
  for (std::size_t i = 0; i < n_; ++i) {
    if ((alive_lw_[i] & ~decided_lw_[i]) & bit) return false;
  }
  return true;
}

inline void LaneEngine::note_flags(std::size_t l, std::size_t i) {
  // Both mirrors in one refresh; a word is written only when its bit flips.
  const Process& p = *worlds_[l].world.processes[i];
  const std::size_t wdx = lane_base(l) + i / 64;
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (p.halted() != ((halted_pw_[wdx] & bit) != 0)) halted_pw_[wdx] ^= bit;
  if (p.dormant() != ((dormant_pw_[wdx] & bit) != 0)) dormant_pw_[wdx] ^= bit;
}

std::size_t LaneEngine::num_awake(std::size_t l) const {
  const std::uint64_t* alive = alive_pw_ + lane_base(l);
  const std::uint64_t* dormant = dormant_pw_ + lane_base(l);
  std::size_t count = 0;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    count += bit_count(alive[wdx] & ~dormant[wdx]);
  }
  return count;
}

void LaneEngine::commit_crashes(std::size_t l, Round r) {
  // Consumes the marks, so the crash row is zero again whenever no hook's
  // marks are pending.  Marks of dead processes are dropped.
  const std::uint64_t lane_bit = std::uint64_t{1} << l;
  Lane& lane = lane_[l];
  std::uint64_t* alive = alive_pw_ + lane_base(l);
  std::uint64_t* part = participating_pw_ + lane_base(l);
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t hit = crash_[wdx] & alive[wdx];
    crash_[wdx] = 0;
    alive[wdx] &= ~hit;
    part[wdx] &= ~hit;
    for_each_bit(hit, wdx * 64, [&](std::size_t i) {
      alive_lw_[i] &= ~lane_bit;
      // kLocal: a dead radio's detector advice reads kNull from now on
      // (kGlobal's oracle advises every process each round).
      if (local_) lane.cd_advice[i] = CdAdvice::kNull;
      --lane.num_alive;
      ++lane.crashes_applied;
      lane.log.record_crash(static_cast<ProcessId>(i), r);
    });
  }
}

void LaneEngine::deliver_matrix_global(std::size_t l, Round r) {
  World& w = worlds_[l].world;
  const std::vector<Message>& msg = lane_[l].sent_msg;
  const std::uint64_t* sent = sent_pw_ + lane_base(l);
  const std::uint64_t* part = participating_pw_ + lane_base(l);

  const bool all = w.loss->always_delivers();
  if (all) {
    // Loss-free clique: every participating receiver observes the SAME
    // multiset -- every broadcast, self-delivery included -- so build and
    // sort it once at offset 0 and point every receiver at it (the same
    // bytes as a per-receiver copy, sorted).
    for (std::size_t sw = 0; sw < words_; ++sw) {
      for_each_bit(sent[sw], sw * 64, [&](std::size_t j) {
        recv_buf_.push_back(msg[j]);
      });
    }
    std::sort(recv_buf_.begin(), recv_buf_.end());
    for (std::size_t wdx = 0; wdx < words_; ++wdx) {
      for_each_bit(part[wdx], wdx * 64,
                   [&](std::size_t i) { close_multiset(l, i, 0); });
    }
    return;
  }

  // The adversary contract: a reset matrix in, delivery decisions out,
  // self-delivery enforced afterwards (Definition 11, constraint 5).
  delivery_.reset(n_);
  w.loss->decide_delivery(r, view(sent), delivery_);
  view(sent).for_each([&](std::size_t j) { delivery_.set(j, j, true); });

  // Clique: the receiver set is the participation mask, and only set bits
  // of the sent words are ever visited (no O(n) sender scan per receiver).
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(part[wdx], wdx * 64, [&](std::size_t i) {
      const std::size_t off = recv_buf_.size();
      for (std::size_t sw = 0; sw < words_; ++sw) {
        for_each_bit(sent[sw], sw * 64, [&](std::size_t j) {
          if (delivery_.delivered(i, j)) recv_buf_.push_back(msg[j]);
        });
      }
      std::sort(recv_buf_.begin() + off, recv_buf_.end());
      close_multiset(l, i, off);
    });
  }
}

void LaneEngine::deliver_matrix_local(std::size_t l, Round r) {
  World& w = worlds_[l].world;
  Lane& lane = lane_[l];
  const std::vector<Message>& msg = lane.sent_msg;
  const std::uint64_t* sent = sent_pw_ + lane_base(l);
  std::vector<std::uint32_t>& lc = lane.local_c;
  std::fill(lc.begin(), lc.end(), 0);

  const bool all = w.loss->always_delivers();
  if (!all) {
    delivery_.reset(n_);
    w.loss->decide_delivery(r, view(sent), delivery_);
  }

  // Ground-truth contention c_i is counted over the neighborhood whether or
  // not anything was delivered; the adversary's matrix is masked by
  // adjacency.  Set-bit order is ascending neighbour order.
  const std::uint64_t* hear = receivers_in_range(l);
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(hear[wdx], wdx * 64, [&](std::size_t i) {
      const std::size_t off = recv_buf_.size();
      std::uint32_t c = 0;
      if ((sent[i / 64] >> (i % 64)) & 1u) {
        ++c;                          // own broadcast counts toward c_i
        recv_buf_.push_back(msg[i]);  // and is always self-delivered
      }
      const std::uint64_t* adj = adj_row(l, i);
      for (std::size_t sw = 0; sw < words_; ++sw) {
        for_each_bit(sent[sw] & adj[sw], sw * 64, [&](std::size_t j) {
          ++c;
          if (all || delivery_.delivered(i, j)) recv_buf_.push_back(msg[j]);
        });
      }
      std::sort(recv_buf_.begin() + off, recv_buf_.end());
      close_multiset(l, i, off);
      lc[i] = c;
      if (c >= 2) ++lane.counters.collisions;
    });
  }
}

void LaneEngine::deliver_capture(std::size_t l) {
  Lane& lane = lane_[l];
  const std::vector<Message>& msg = lane.sent_msg;
  const std::uint64_t* sent = sent_pw_ + lane_base(l);
  const MhLinkModel& link = worlds_[l].link;
  Rng& rng = lane.link_rng;
  std::vector<std::uint32_t>& lc = lane.local_c;
  std::fill(lc.begin(), lc.end(), 0);

  // Receivers ascending; dead and out-of-range receivers are skipped
  // WITHOUT consuming randomness (an in-range receiver with no
  // broadcasting neighbour draws none either), so the lane's link RNG
  // stream depends on its world alone.  The captured neighbour is the k-th
  // broadcasting neighbour in ascending order: the k-th set bit of
  // `sent & adjacency`.
  const std::uint64_t* hear = receivers_in_range(l);
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(hear[wdx], wdx * 64, [&](std::size_t i) {
      const std::size_t off = recv_buf_.size();
      const std::uint64_t* adj = adj_row(l, i);
      std::uint32_t heard = 0;  // broadcasting neighbours
      for (std::size_t sw = 0; sw < words_; ++sw) {
        heard += bit_count(sent[sw] & adj[sw]);
      }
      std::uint32_t c = heard;
      if ((sent[i / 64] >> (i % 64)) & 1u) {
        ++c;
        recv_buf_.push_back(msg[i]);
      }
      if (heard == 1) {
        if (rng.chance(link.p_single)) {
          recv_buf_.push_back(msg[nth_set_bit(sent, adj, 0)]);
        }
      } else if (heard > 1) {
        if (rng.chance(link.p_capture)) {
          const std::size_t j = nth_set_bit(sent, adj, rng.below(heard));
          recv_buf_.push_back(msg[j]);
        }
      }
      // At most two messages (own + captured): one compare-swap sorts them.
      if (recv_buf_.size() - off == 2 && recv_buf_[off + 1] < recv_buf_[off]) {
        std::swap(recv_buf_[off], recv_buf_[off + 1]);
      }
      close_multiset(l, i, off);
      lc[i] = c;
      if (c >= 2) ++lane.counters.collisions;
    });
  }
}

const std::uint64_t* LaneEngine::receivers_in_range(std::size_t l) {
  // Adjacency is symmetric, so i hears some sender iff i sent or i lies in
  // a sender's row: O(broadcasters * words) instead of a scan of every
  // live receiver's row.
  const std::uint64_t* sent = sent_pw_ + lane_base(l);
  const std::uint64_t* alive = alive_pw_ + lane_base(l);
  std::copy(sent, sent + words_, hear_);
  for (std::size_t sw = 0; sw < words_; ++sw) {
    for_each_bit(sent[sw], sw * 64, [&](std::size_t j) {
      const std::uint64_t* adj = adj_row(l, j);
      for (std::size_t wdx = 0; wdx < words_; ++wdx) hear_[wdx] |= adj[wdx];
    });
  }
  for (std::size_t wdx = 0; wdx < words_; ++wdx) hear_[wdx] &= alive[wdx];
  return hear_;
}

void LaneEngine::close_multiset(std::size_t l, std::size_t i,
                                std::size_t off) {
  const auto count = static_cast<std::uint32_t>(recv_buf_.size() - off);
  recv_off_[i] = off;
  lane_[l].recv_count[i] = count;
  lane_[l].counters.messages_delivered += count;
}

std::span<const Message> LaneEngine::received(std::size_t l,
                                              std::size_t i) const {
  // A receiver delivery never visited this round has count 0 and a stale
  // offset: it reads the empty multiset.
  const std::uint32_t count = lane_[l].recv_count[i];
  if (count == 0) return {};
  return {recv_buf_.data() + recv_off_[i], count};
}

void LaneEngine::lane_round(std::size_t l, Round r) {
  World& w = worlds_[l].world;
  Lane& lane = lane_[l];
  const bool local = local_;
  obs::EngineCounters& ctr = lane.counters;
  ++ctr.rounds;

  // Participation snapshot for this round: alive and not halted.  Both
  // flags are event-maintained (crash commits, halt memoization), so the
  // snapshot is W word ops instead of n virtual halted() probes.
  std::uint64_t* part = participating_pw_ + lane_base(l);
  const std::uint64_t* alive = alive_pw_ + lane_base(l);
  const std::uint64_t* halted = halted_pw_ + lane_base(l);
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    part[wdx] = alive[wdx] & ~halted[wdx];
  }

  // W_r: contention advice.
  w.cm->advise(r, view(part), lane.cm_advice);
  lane.cm_advice.resize(n_, CmAdvice::kPassive);
  ++ctr.cm_advice_calls;

  // Both crash points run only inside the lane's crash window.
  const bool faults = r <= lane.last_crash_round;
  const std::span<std::uint64_t> crash(crash_, words_);

  // Crash point A (kBeforeSend): marked processes are silent from round r
  // on.
  if (faults) {
    w.fault->crash_before_send(r, view(alive), crash);
    const std::uint64_t pre = lane.crashes_applied;
    commit_crashes(l, r);
    ctr.crashes_before_send += lane.crashes_applied - pre;
  }

  // M_r: message assignments.  Senders land as set bits; the message slot
  // is valid iff the bit is (no per-round optional churn).  Dormant
  // processes send nothing by contract and are not asked; they stay in
  // `part`, so W_r above saw the same participants.
  std::uint64_t* sent = sent_pw_ + lane_base(l);
  std::fill(sent, sent + words_, 0);
  std::uint32_t& bc = lane.broadcaster_count;
  bc = 0;
  const std::uint64_t* dormant = dormant_pw_ + lane_base(l);
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(part[wdx] & ~dormant[wdx], wdx * 64, [&](std::size_t i) {
      std::optional<Message> m = w.processes[i]->on_send(r, lane.cm_advice[i]);
      if (m.has_value()) {
        lane.sent_msg[i] = *m;
        sent[wdx] |= std::uint64_t{1} << (i % 64);
        ++bc;
        ++lane.total_broadcasts;
      }
      note_flags(l, i);
    });
  }

  // Crash point B (kAfterSend): the round-r message is out, the transition
  // is not taken.  kLocal commits immediately; kGlobal defers so the
  // crasher's round-r view still forms.
  const std::uint64_t pre_b = lane.crashes_applied;
  if (faults) {
    w.fault->crash_after_send(r, view(alive), crash);
    if (local) commit_crashes(l, r);
  }

  // N_r: receive multisets, appended to recv_buf_ in receiver order; a
  // receiver delivery does not visit keeps count 0.
  recv_buf_.clear();
  std::fill(lane.recv_count.begin(), lane.recv_count.end(), 0);
  if (worlds_[0].channel == ChannelModel::kMatrix) {
    if (local) {
      deliver_matrix_local(l, r);
    } else {
      deliver_matrix_global(l, r);
    }
  } else {
    deliver_capture(l);
  }
  if (options_.record_rounds) {
    // kGlobal delivers to the participants; kLocal to every live process.
    const std::uint64_t* receivers = local ? alive : part;
    std::copy(receivers, receivers + words_, receivers_);
  }

  ctr.messages_sent += bc;

  // D_r: collision detector advice -- one global oracle call on a clique,
  // per-neighborhood (c_i, t_i) for every live process otherwise (delivery
  // counted the local collisions).
  if (!local) {
    w.cd->advise(r, bc, lane.recv_count, lane.cd_advice);
    ++ctr.cd_advice_calls;
    if (bc >= 2) ++ctr.collisions;
  } else {
    w.cd->advise_local(r, view(alive), lane.local_c, lane.recv_count,
                       lane.cd_advice);
    ctr.cd_advice_calls += lane.num_alive;
  }
  w.cm->observe(r, bc);

  // C_r: transitions (skipped for processes crashing this round).  kLocal
  // consults the LIVE halted flag (a process that halted inside its own
  // on_send takes no transition) and skips dormant processes out of range
  // of every sender: they received nothing, so by contract their step is
  // a no-op.  kGlobal uses the round-start snapshot minus this round's
  // after-send crash marks (zero outside the window); it delivers to every
  // participant, so dormancy skips nothing there.
  const std::uint64_t lane_bit = std::uint64_t{1} << l;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t takers =
        local ? alive[wdx] & ~halted[wdx] & (~dormant[wdx] | hear_[wdx])
              : part[wdx] & ~crash_[wdx];
    for_each_bit(takers, wdx * 64, [&](std::size_t i) {
      w.processes[i]->on_receive(r, received(l, i), lane.cd_advice[i],
                                 lane.cm_advice[i]);
      note_flags(l, i);
      if (lane.decided_value[i] == kNoValue && w.processes[i]->decided()) {
        lane.decided_value[i] = w.processes[i]->decision();
        decided_lw_[i] |= lane_bit;
        lane.log.record_decision(static_cast<ProcessId>(i), r,
                                 lane.decided_value[i]);
      }
    });
  }
  if (!local && faults) commit_crashes(l, r);
  ctr.crashes_after_send += lane.crashes_applied - pre_b;
  if (options_.record_rounds) record_round(l, receivers_);
}

void LaneEngine::record_round(std::size_t l, const std::uint64_t* receivers) {
  Lane& lane = lane_[l];
  TransmissionRound tr;
  tr.broadcaster_count = lane.broadcaster_count;
  tr.receive_count = lane.recv_count;
  std::vector<RoundView> views;
  if (lane.log.views_recorded()) {
    views.resize(n_);
    const std::uint64_t* sent = sent_pw_ + lane_base(l);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      RoundView& view = views[i];
      if (sent[i / 64] & bit) view.sent = lane.sent_msg[i];
      if (receivers[i / 64] & bit) {
        const std::span<const Message> in = received(l, i);
        view.received.assign(in.begin(), in.end());
      }
      view.cd = lane.cd_advice[i];
      view.cm = lane.cm_advice[i];
      view.crashed = !alive(l, i);
    }
  }
  lane.log.push_round(std::move(tr), lane.cd_advice, lane.cm_advice,
                      std::move(views));
}

void LaneEngine::step() {
  const Round r = ++round_;
  for_each_bit(active_, 0, [&](std::size_t l) { lane_round(l, r); });
}

void LaneEngine::retire(std::size_t l) {
  assert(lane_active(l));
  RunResult& result = lane_[l].result;
  result.rounds_executed = round_;
  result.all_correct_decided = all_correct_decided(l);
  result.last_decision_round = 0;
  for (const DecisionRecord& d : lane_[l].log.decisions()) {
    if (alive(l, d.process) && d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  result.num_crashed = static_cast<std::uint32_t>(n_ - lane_[l].num_alive);
  active_ &= ~(std::uint64_t{1} << l);
}

void LaneEngine::run(Round max_rounds) {
  while (active_) {
    if (options_.stop_when_all_decided) {
      // Which lanes still hold an undecided correct process: one AND-NOT
      // per process covers all 64 seeds at once.
      std::uint64_t undecided = 0;
      for (std::size_t i = 0; i < n_; ++i) {
        undecided |= alive_lw_[i] & ~decided_lw_[i];
      }
      for_each_bit(active_ & ~undecided, 0,
                   [&](std::size_t l) { retire(l); });
      if (!active_) return;
    }
    if (round_ >= max_rounds) break;
    step();
  }
  for_each_bit(active_, 0, [&](std::size_t l) { retire(l); });
}

}  // namespace ccd
