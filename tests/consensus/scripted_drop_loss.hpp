// A hand-written loss tape shared by the consensus tests: a perfect channel
// except for an explicit per-round list of dropped (receiver, sender)
// messages.
#pragma once

#include <cstdint>
#include <vector>

#include "net/loss_adversary.hpp"

namespace ccd {

/// Perfect channel except for an explicit per-round drop list; r_cf is the
/// round after the last drop, so ECF holds.
class ScriptedDropLoss final : public LossAdversary {
 public:
  struct Drop {
    Round round;
    std::uint32_t receiver;
    std::uint32_t sender;
  };
  ScriptedDropLoss(std::vector<Drop> drops, Round r_cf)
      : drops_(std::move(drops)), r_cf_(r_cf) {}

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override {
    out.deliver_to_all(sent);
    for (const Drop& d : drops_) {
      if (d.round == round) out.set(d.receiver, d.sender, false);
    }
  }
  Round r_cf() const override { return r_cf_; }

 private:
  std::vector<Drop> drops_;
  Round r_cf_;
};

}  // namespace ccd
