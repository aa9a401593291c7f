// Two-group partition adversary: the loss pattern at the heart of every
// impossibility/lower-bound construction in Section 8.
//
// Processes [0, split) form group R; [split, n) form group R'.  Through
// round `heal_round - 1` every cross-group message is lost.  Within a
// group, delivery follows the alpha-execution rule (Definition 24 / Lemma
// 23 assumption 2): if exactly ONE member of the group broadcasts, the
// whole group receives its message; if two or more broadcast, each
// broadcaster hears only itself and silent members hear nothing.  From
// `heal_round` on the channel is perfect (needed so Theorem 4's composed
// execution still satisfies ECF); pass kNeverRound to keep the partition
// forever (Theorem 8).
#pragma once

#include "net/loss_adversary.hpp"

namespace ccd {

class PartitionAdversary final : public LossAdversary {
 public:
  struct Options {
    std::uint32_t split = 1;
    Round heal_round = kNeverRound;
  };

  explicit PartitionAdversary(Options opts);

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;

  /// ECF holds iff the partition eventually heals.
  Round r_cf() const override { return opts_.heal_round; }

 private:
  void deliver_within_group(std::size_t lo, std::size_t hi, BitView sent,
                            DeliveryMatrix& out) const;

  Options opts_;
};

}  // namespace ccd
