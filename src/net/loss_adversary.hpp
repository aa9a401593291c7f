// Message-loss adversaries.
//
// The execution definition (Definition 11, constraints 4-5) places almost
// no limit on loss: any process may lose any subset of the messages sent by
// OTHERS in any round; broadcasters always receive their own message.  The
// only positive property the paper ever assumes is Eventual Collision
// Freedom (Property 1): there is a round r_cf after which a LONE
// broadcaster is heard by everybody.
//
// An adversary fills a delivery matrix each round; the executor enforces
// self-delivery and derives receive multisets and the transmission trace
// from it.
#pragma once

#include <cstdint>
#include <vector>

#include "model/types.hpp"
#include "util/bitwords.hpp"
#include "util/rng.hpp"

namespace ccd {

/// Delivery decisions of one round: for each sender j, the word row of
/// receivers that get j's message (bit i of row j = entry (i, j)).  n rows
/// of word_count(n) words; bits at or above n stay zero.
class DeliveryMatrix {
 public:
  /// n x n, nothing delivered.
  void reset(std::size_t n);
  bool delivered(std::size_t receiver, std::size_t sender) const {
    return receivers(sender).test(receiver);
  }
  void set(std::size_t receiver, std::size_t sender, bool value) {
    std::uint64_t& word = bits_[sender * words_ + receiver / 64];
    const std::uint64_t bit = std::uint64_t{1} << (receiver % 64);
    word = value ? word | bit : word & ~bit;
  }
  /// Every process receives the message of every sender in `senders`.
  void deliver_to_all(BitView senders);
  /// iid links: for each sender j ascending, each receiver i ascending
  /// gets j's message with probability p -- one draw per (i, j), i != j;
  /// the self entry is set without a draw.
  void deliver_iid(BitView senders, double p, Rng& rng);
  /// Capture effect (Section 1.1 [71]): each receiver i ascending, with
  /// probability p, gets the message of one sender drawn uniformly from
  /// `senders` (nonempty) and loses the others.
  void deliver_captured(BitView senders, double p, Rng& rng);
  /// The receivers of `sender`'s message.
  BitView receivers(std::size_t sender) const {
    return {{bits_.data() + sender * words_, words_}, n_};
  }

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // [sender][receiver word]
};

class LossAdversary {
 public:
  virtual ~LossAdversary() = default;

  /// Decide delivery for round `round`.  `sent` holds the processes that
  /// broadcast (crashed processes are never in it); sent.size() is n.
  /// `out` arrives reset to nothing-delivered; set (i, j) for every message
  /// of j that i receives, only for j in `sent` (the executor reads no
  /// other row).  Self-delivery for senders is enforced by the executor
  /// afterwards, so adversaries need not (but may) set the diagonal.
  virtual void decide_delivery(Round round, BitView sent,
                               DeliveryMatrix& out) = 0;

  /// The r_cf posited by eventual collision freedom, or kNeverRound if this
  /// adversary offers no such guarantee (NoCF executions).
  virtual Round r_cf() const = 0;

  /// True iff this adversary statically delivers EVERYTHING: every
  /// decide_delivery call fills the full matrix, consumes no randomness, and
  /// mutates no state.  Engines may then skip the call (and the matrix)
  /// entirely without observable effect.  Only NoLoss qualifies; any
  /// adversary with an RNG or history must return false.
  virtual bool always_delivers() const { return false; }

  virtual const char* name() const = 0;
};

}  // namespace ccd
