// A physically-motivated loss model reproducing the capture-effect
// behaviour described in Section 1.1 [71]: when multiple nearby radios
// transmit simultaneously, each receiver may still successfully decode ONE
// of the transmissions (non-uniformly across receivers), or nothing.
// Single transmissions succeed per-receiver with probability
// p_single_deliver, rising to certainty after r_cf when ecf is enabled.
//
// Used by robustness tests and the backoff-CM claims (E11, exp/claims.hpp)
// to exercise algorithms under "realistic" loss rather than worst-case loss.
#pragma once

#include "net/loss_adversary.hpp"
#include "util/rng.hpp"

namespace ccd {

class CaptureEffectLoss final : public LossAdversary {
 public:
  struct Options {
    double p_capture = 0.7;        ///< chance a receiver decodes anything
                                   ///< under contention
    double p_single_deliver = 0.8; ///< pre-r_cf lone-broadcast success
    Round r_cf = 1;                ///< ECF point (kNeverRound disables)
    std::uint64_t seed = 11;
  };

  explicit CaptureEffectLoss(Options opts);

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;
  Round r_cf() const override { return opts_.r_cf; }

 private:
  Options opts_;
  Rng rng_;
};

}  // namespace ccd
