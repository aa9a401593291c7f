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

LaneEngine::LaneEngine(EngineWorld world, EngineOptions options)
    : n_(world.world.processes.size()),
      words_(word_count(n_)),
      options_(options),
      local_(world.scope == CollisionScope::kLocal),
      capture_(world.channel == ChannelModel::kCapture),
      world_(std::move(world)),
      recv_count_(n_, 0),
      local_c_(local_ && !capture_ ? n_ : 0, 0),
      sent_msg_(n_),
      decided_value_(n_, kNoValue),
      num_alive_(n_),
      link_rng_(world_.link_seed),
      log_(n_, options.record_rounds && options.record_views) {
  assert(local_ || world_.channel == ChannelModel::kMatrix);
  assert(world_.world.initial_values.empty() ||
         world_.world.initial_values.size() == n_);
  cm_advice_.reserve(n_);
  if (local_) {
    assert(world_.topology && world_.topology->size() == n_);
    adj_.assign(n_ * words_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::uint64_t* row = &adj_[i * words_];
      for (std::uint32_t j : world_.topology->neighbors(i)) {
        row[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  } else {
    // kGlobal reads no graph; one given must be the clique.
    assert(!world_.topology ||
           (world_.topology->size() == n_ && is_clique(*world_.topology)));
  }

  // One buffer for every word row: six process rows, then the crash marks
  // and the collision advice, kLocal's in-range receivers, kCapture's
  // captured receivers and count planes, and record_rounds' receivers
  // snapshot.
  const std::size_t rows = 8 + (local_ ? 1 : 0) +
                           (capture_ ? 1 + kCapturePlanes : 0) +
                           (options_.record_rounds ? 1 : 0);
  words_buf_.assign(rows * words_, 0);
  std::uint64_t* next = words_buf_.data();
  auto take = [&next](std::size_t count) {
    std::uint64_t* row = next;
    next += count;
    return row;
  };
  alive_ = take(words_);
  halted_ = take(words_);
  dormant_ = take(words_);
  participating_ = take(words_);
  sent_ = take(words_);
  decided_ = take(words_);
  crash_ = take(words_);
  collision_ = take(words_);
  hear_ = take(local_ ? words_ : 0);
  got_ = take(capture_ ? words_ : 0);
  planes_ = take(capture_ ? kCapturePlanes * words_ : 0);
  receivers_ = take(options_.record_rounds ? words_ : 0);
  if (capture_) {
    capture_rows_ = {n_, alive_, sent_, got_, {}, adj_.data()};
    for (std::size_t k = 0; k < kCapturePlanes; ++k) {
      capture_rows_.heard[k] = planes_ + k * words_;
    }
  }

  World& w = world_.world;
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
  last_crash_round_ = w.fault->last_crash_round();
  for (std::size_t i = 0; i < w.initial_values.size(); ++i) {
    log_.set_initial_value(static_cast<ProcessId>(i), w.initial_values[i]);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    alive_[i / 64] |= bit;
    if (w.processes[i]->halted()) halted_[i / 64] |= bit;
    if (w.processes[i]->dormant()) dormant_[i / 64] |= bit;
  }
  // A loss-free clique round shares one multiset of at most n broadcasts;
  // a lossy one gives each of up to n receivers its own, n^2 messages at
  // most, reserved up front up to n = 64 (larger engines grow on demand
  // rather than reserve a worst case the CMs rarely reach).  A capture
  // receiver gets at most two messages, so receiver i owns the two slots
  // from 2i for the whole run.
  recv_off_.assign(n_, 0);
  if (capture_) {
    recv_buf_.resize(2 * n_);
    for (std::size_t i = 0; i < n_; ++i) recv_off_[i] = 2 * i;
  } else {
    const bool lossy_clique = !local_ && !w.loss->always_delivers();
    constexpr std::size_t kLossyReserveCap = 64 * 64;
    recv_buf_.reserve(lossy_clique ? std::min(n_ * n_, kLossyReserveCap)
                                   : n_);
  }
}

LaneEngine::LaneEngine(World world, EngineOptions options)
    : LaneEngine(
          [&] {
            EngineWorld ew;
            ew.world = std::move(world);
            return ew;
          }(),
          options) {}

std::uint32_t LaneEngine::last_local_broadcasters(std::size_t i) const {
  if (!local_) return broadcaster_count_;
  if (!capture_) return local_c_[i];
  // The capture channel keeps no counts: a live process's c_i is popped
  // from its row (a dead radio's reads 0).
  if (!alive(i)) return 0;
  return static_cast<std::uint32_t>((sent_[i / 64] >> (i % 64)) & 1u) +
         and_count(sent_, adj_row(i), words_);
}

bool LaneEngine::all_correct_decided() const {
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    if (alive_[wdx] & ~decided_[wdx]) return false;
  }
  return true;
}

inline void LaneEngine::note_flags(std::size_t i) {
  // Both mirrors in one refresh; a word is written only when its bit flips.
  const Process& p = *world_.world.processes[i];
  const std::size_t wdx = i / 64;
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (p.halted() != ((halted_[wdx] & bit) != 0)) halted_[wdx] ^= bit;
  if (p.dormant() != ((dormant_[wdx] & bit) != 0)) dormant_[wdx] ^= bit;
}

std::size_t LaneEngine::num_awake() const {
  std::size_t count = 0;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    count += bit_count(alive_[wdx] & ~dormant_[wdx]);
  }
  return count;
}

void LaneEngine::commit_crashes(Round r) {
  // Consumes the marks, so the crash row is zero again whenever no hook's
  // marks are pending.  Marks of dead processes are dropped.
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t hit = crash_[wdx] & alive_[wdx];
    crash_[wdx] = 0;
    alive_[wdx] &= ~hit;
    participating_[wdx] &= ~hit;
    // kLocal: a dead radio's detector advice reads kNull from now on
    // (kGlobal's oracle advises every process each round).
    if (local_) collision_[wdx] &= ~hit;
    for_each_bit(hit, wdx * 64, [&](std::size_t i) {
      --num_alive_;
      ++crashes_applied_;
      log_.record_crash(static_cast<ProcessId>(i), r);
    });
  }
}

void LaneEngine::deliver_matrix_global(Round r) {
  World& w = world_.world;
  recv_buf_.clear();
  const std::vector<Message>& msg = sent_msg_;
  const std::uint64_t* sent = sent_;
  const std::uint64_t* part = participating_;

  if (w.loss->always_delivers()) {
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
                   [&](std::size_t i) { close_multiset(i, 0); });
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
      close_multiset(i, off);
    });
  }
}

void LaneEngine::deliver_matrix_local(Round r) {
  World& w = world_.world;
  recv_buf_.clear();
  const std::vector<Message>& msg = sent_msg_;
  const std::uint64_t* sent = sent_;
  std::fill(local_c_.begin(), local_c_.end(), 0);

  const bool all = w.loss->always_delivers();
  if (!all) {
    delivery_.reset(n_);
    w.loss->decide_delivery(r, view(sent), delivery_);
  }

  // Ground-truth contention c_i is counted over the neighborhood whether or
  // not anything was delivered; the adversary's matrix is masked by
  // adjacency.  Set-bit order is ascending neighbour order.
  const std::uint64_t* hear = receivers_in_range();
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(hear[wdx], wdx * 64, [&](std::size_t i) {
      const std::size_t off = recv_buf_.size();
      std::uint32_t c = 0;
      if ((sent[i / 64] >> (i % 64)) & 1u) {
        ++c;                          // own broadcast counts toward c_i
        recv_buf_.push_back(msg[i]);  // and is always self-delivered
      }
      const std::uint64_t* adj = adj_row(i);
      for (std::size_t sw = 0; sw < words_; ++sw) {
        for_each_bit(sent[sw] & adj[sw], sw * 64, [&](std::size_t j) {
          ++c;
          if (all || delivery_.delivered(i, j)) recv_buf_.push_back(msg[j]);
        });
      }
      std::sort(recv_buf_.begin() + off, recv_buf_.end());
      close_multiset(i, off);
      local_c_[i] = c;
      if (c >= 2) ++counters_.collisions;
    });
  }
}

void LaneEngine::deliver_capture() {
  const std::vector<Message>& msg = sent_msg_;
  const std::uint64_t* sent = sent_;
  const std::uint64_t* alive = alive_;
  const MhLinkModel& link = world_.link;

  // Saturating bit-sliced neighbour counts, one pass over the
  // broadcasters' adjacency rows per word: plane k holds the processes
  // with at least k + 1 broadcasting neighbours (adjacency is symmetric,
  // so i is in j's row iff j is in i's).  Then the live receivers in range
  // of a sender, and the collisions: those with c_i >= 2.
  std::uint64_t* h1 = planes_;
  std::uint64_t* h2 = h1 + words_;
  std::uint64_t* h3 = h2 + words_;
  std::uint64_t* h4 = h3 + words_;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    std::uint64_t p1 = 0, p2 = 0, p3 = 0, p4 = 0;
    for (std::size_t sw = 0; sw < words_; ++sw) {
      for_each_bit(sent[sw], sw * 64, [&](std::size_t j) {
        const std::uint64_t a = adj_row(j)[wdx];
        p4 |= p3 & a;
        p3 |= p2 & a;
        p2 |= p1 & a;
        p1 |= a;
      });
    }
    h1[wdx] = p1;
    h2[wdx] = p2;
    h3[wdx] = p3;
    h4[wdx] = p4;
    hear_[wdx] = (sent[wdx] | p1) & alive[wdx];
    counters_.collisions += bit_count((p2 | (sent[wdx] & p1)) & alive[wdx]);
  }

  // Receivers ascending; dead and out-of-range receivers are skipped
  // WITHOUT consuming randomness (an in-range receiver with no
  // broadcasting neighbour draws none either), so the link RNG stream
  // depends on the world alone.  The captured neighbour is the k-th
  // broadcasting neighbour in ascending order: the k-th set bit of
  // `sent & adjacency`; the exact count is popped only for a capture.
  Message* slots = recv_buf_.data();
  std::uint64_t delivered = 0;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t own = sent[wdx];
    const std::uint64_t many = h2[wdx];
    const std::uint64_t one = h1[wdx] & ~many;
    std::uint64_t got = 0;
    for_each_bit(hear_[wdx], wdx * 64, [&](std::size_t i) {
      Message* in = slots + 2 * i;
      std::uint32_t count = 0;
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if (own & bit) in[count++] = msg[i];
      const std::uint64_t* adj = adj_row(i);
      if (many & bit) {
        if (link_rng_.chance(link.p_capture)) {
          const std::uint32_t heard = and_count(sent, adj, words_);
          in[count++] = msg[nth_set_bit(sent, adj, link_rng_.below(heard))];
          got |= bit;
        }
      } else if (one & bit) {
        if (link_rng_.chance(link.p_single)) {
          in[count++] = msg[nth_set_bit(sent, adj, 0)];
          got |= bit;
        }
      }
      // Own + captured: one compare-swap sorts them.
      if (count == 2 && in[1] < in[0]) std::swap(in[0], in[1]);
      recv_count_[i] = count;
      delivered += count;
    });
    got_[wdx] = got;
  }
  counters_.messages_delivered += delivered;
}

const std::uint64_t* LaneEngine::receivers_in_range() {
  // Adjacency is symmetric, so i hears some sender iff i sent or i lies in
  // a sender's row: O(broadcasters * words) instead of a scan of every
  // live receiver's row.
  std::copy(sent_, sent_ + words_, hear_);
  for (std::size_t sw = 0; sw < words_; ++sw) {
    for_each_bit(sent_[sw], sw * 64, [&](std::size_t j) {
      const std::uint64_t* adj = adj_row(j);
      for (std::size_t wdx = 0; wdx < words_; ++wdx) hear_[wdx] |= adj[wdx];
    });
  }
  for (std::size_t wdx = 0; wdx < words_; ++wdx) hear_[wdx] &= alive_[wdx];
  return hear_;
}

void LaneEngine::close_multiset(std::size_t i, std::size_t off) {
  const auto count = static_cast<std::uint32_t>(recv_buf_.size() - off);
  recv_off_[i] = off;
  recv_count_[i] = count;
  counters_.messages_delivered += count;
}

std::span<const Message> LaneEngine::received(std::size_t i) const {
  // A receiver delivery never visited this round has count 0 and a stale
  // offset: it reads the empty multiset.
  const std::uint32_t count = recv_count_[i];
  if (count == 0) return {};
  return {recv_buf_.data() + recv_off_[i], count};
}

void LaneEngine::step() {
  const Round r = ++round_;
  World& w = world_.world;
  const bool local = local_;
  obs::EngineCounters& ctr = counters_;
  ++ctr.rounds;

  // Participation snapshot for this round: alive and not halted.  Both
  // flags are event-maintained (crash commits, halt memoization), so the
  // snapshot is W word ops instead of n virtual halted() probes.
  std::uint64_t* part = participating_;
  const std::uint64_t* alive = alive_;
  const std::uint64_t* halted = halted_;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    part[wdx] = alive[wdx] & ~halted[wdx];
  }

  // W_r: contention advice.
  w.cm->advise(r, view(part), cm_advice_);
  cm_advice_.resize(n_, CmAdvice::kPassive);
  ++ctr.cm_advice_calls;

  // Both crash points run only inside the crash window.
  const bool faults = r <= last_crash_round_;
  const std::span<std::uint64_t> crash(crash_, words_);

  // Crash point A (kBeforeSend): marked processes are silent from round r
  // on.
  if (faults) {
    w.fault->crash_before_send(r, view(alive), crash);
    const std::uint64_t pre = crashes_applied_;
    commit_crashes(r);
    ctr.crashes_before_send += crashes_applied_ - pre;
  }

  // M_r: message assignments.  Senders land as set bits; the message slot
  // is valid iff the bit is (no per-round optional churn).  Dormant
  // processes send nothing by contract and are not asked; they stay in
  // `part`, so W_r above saw the same participants.
  std::uint64_t* sent = sent_;
  std::fill(sent, sent + words_, 0);
  std::uint32_t& bc = broadcaster_count_;
  bc = 0;
  const std::uint64_t* dormant = dormant_;
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    for_each_bit(part[wdx] & ~dormant[wdx], wdx * 64, [&](std::size_t i) {
      std::optional<Message> m = w.processes[i]->on_send(r, cm_advice_[i]);
      if (m.has_value()) {
        sent_msg_[i] = *m;
        sent[wdx] |= std::uint64_t{1} << (i % 64);
        ++bc;
        ++total_broadcasts_;
      }
      note_flags(i);
    });
  }

  // Crash point B (kAfterSend): the round-r message is out, the transition
  // is not taken.  kLocal commits immediately; kGlobal defers so the
  // crasher's round-r view still forms.
  const std::uint64_t pre_b = crashes_applied_;
  if (faults) {
    w.fault->crash_after_send(r, view(alive), crash);
    if (local) commit_crashes(r);
  }

  // N_r: receive multisets in recv_buf_ (appended in receiver order over a
  // delivery matrix, in fixed slots on the capture channel); a receiver
  // delivery does not visit keeps count 0.
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  if (world_.channel == ChannelModel::kMatrix) {
    if (local) {
      deliver_matrix_local(r);
    } else {
      deliver_matrix_global(r);
    }
  } else {
    deliver_capture();
  }
  if (options_.record_rounds) {
    // kGlobal delivers to the participants; kLocal to every live process.
    const std::uint64_t* receivers = local ? alive : part;
    std::copy(receivers, receivers + words_, receivers_);
  }

  ctr.messages_sent += bc;

  // D_r: collision detector advice into the collision row -- one global
  // oracle call on a clique, per-neighborhood (c_i, t_i) for every live
  // process otherwise (delivery counted the local collisions): from the
  // exact counts over a delivery matrix, from the count planes and the
  // captured row on the capture channel.
  const std::span<std::uint64_t> collision(collision_, words_);
  if (!local) {
    w.cd->advise(r, bc, recv_count_, collision);
    ++ctr.cd_advice_calls;
    if (bc >= 2) ++ctr.collisions;
  } else {
    if (capture_) {
      w.cd->advise_capture(r, capture_rows_, collision);
    } else {
      w.cd->advise_local(r, view(alive), local_c_, recv_count_, collision);
    }
    ctr.cd_advice_calls += num_alive_;
  }
  w.cm->observe(r, bc);

  // C_r: transitions (skipped for processes crashing this round).  kLocal
  // consults the LIVE halted flag (a process that halted inside its own
  // on_send takes no transition) and skips dormant processes out of range
  // of every sender: they received nothing, so by contract their step is
  // a no-op.  kGlobal uses the round-start snapshot minus this round's
  // after-send crash marks (zero outside the window); it delivers to every
  // participant, so dormancy skips nothing there.
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t takers =
        local ? alive[wdx] & ~halted[wdx] & (~dormant[wdx] | hear_[wdx])
              : part[wdx] & ~crash_[wdx];
    for_each_bit(takers, wdx * 64, [&](std::size_t i) {
      w.processes[i]->on_receive(r, received(i), last_cd(i), cm_advice_[i]);
      note_flags(i);
      if (decided_value_[i] == kNoValue && w.processes[i]->decided()) {
        decided_value_[i] = w.processes[i]->decision();
        decided_[wdx] |= std::uint64_t{1} << (i % 64);
        log_.record_decision(static_cast<ProcessId>(i), r, decided_value_[i]);
      }
    });
  }
  if (!local && faults) commit_crashes(r);
  ctr.crashes_after_send += crashes_applied_ - pre_b;
  if (options_.record_rounds) record_round();
}

void LaneEngine::record_round() {
  TransmissionRound tr;
  tr.broadcaster_count = broadcaster_count_;
  tr.receive_count = recv_count_;
  std::vector<CdAdvice> cd(n_);
  for (std::size_t i = 0; i < n_; ++i) cd[i] = last_cd(i);
  std::vector<RoundView> views;
  if (log_.views_recorded()) {
    views.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      RoundView& view = views[i];
      if (sent_[i / 64] & bit) view.sent = sent_msg_[i];
      if (receivers_[i / 64] & bit) {
        const std::span<const Message> in = received(i);
        view.received.assign(in.begin(), in.end());
      }
      view.cd = cd[i];
      view.cm = cm_advice_[i];
      view.crashed = !alive(i);
    }
  }
  log_.push_round(std::move(tr), std::move(cd), cm_advice_, std::move(views));
}

RunResult LaneEngine::run(Round max_rounds) {
  // n = 0: no process can ever send, decide or crash; the world is done
  // before its first round.
  while (n_ > 0 && round_ < max_rounds &&
         !(options_.stop_when_all_decided && all_correct_decided())) {
    step();
  }
  return result();
}

RunResult LaneEngine::result() const {
  RunResult result;
  result.rounds_executed = round_;
  result.all_correct_decided = all_correct_decided();
  for (const DecisionRecord& d : log_.decisions()) {
    if (alive(d.process) && d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  result.num_crashed = static_cast<std::uint32_t>(n_ - num_alive_);
  return result;
}

}  // namespace ccd
