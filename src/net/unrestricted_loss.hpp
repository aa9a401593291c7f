// NoCF adversaries: executions with NO eventual collision freedom
// (Sections 7.4, 8.4, 8.5).  There is never a round after which a lone
// broadcaster is guaranteed to be heard, so algorithms are reduced to
// communicating through silence vs collision notifications.
#pragma once

#include "net/loss_adversary.hpp"
#include "util/rng.hpp"

namespace ccd {

class UnrestrictedLoss final : public LossAdversary {
 public:
  enum class Mode {
    kDropOthers,  ///< worst case: every cross-process message always lost
                  ///< (the beta executions of Theorem 9)
    kRandom,      ///< iid delivery with probability p forever
  };

  struct Options {
    Mode mode = Mode::kDropOthers;
    double p_deliver = 0.3;
    std::uint64_t seed = 5;
  };

  explicit UnrestrictedLoss(Options opts);

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;
  Round r_cf() const override { return kNeverRound; }

 private:
  Options opts_;
  Rng rng_;
};

}  // namespace ccd
