// Independent per-link loss: message from j reaches i with probability p,
// iid across links and rounds, with an optional ECF point after which a
// lone broadcaster is always heard.  Models the 20-50% loss rates the
// empirical studies in Section 1.1 report, without adversarial structure.
#pragma once

#include "net/loss_adversary.hpp"
#include "util/rng.hpp"

namespace ccd {

class ProbabilisticLoss final : public LossAdversary {
 public:
  struct Options {
    double p_deliver = 0.7;
    Round r_cf = kNeverRound;  ///< kNeverRound = no ECF guarantee
    std::uint64_t seed = 13;
  };

  explicit ProbabilisticLoss(Options opts);

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;
  Round r_cf() const override { return opts_.r_cf; }

 private:
  Options opts_;
  Rng rng_;
};

}  // namespace ccd
