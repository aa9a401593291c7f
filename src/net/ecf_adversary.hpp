// The canonical ECF adversary (Property 1).
//
// Before r_cf: unconstrained loss, selectable among several shapes (drop
// everything from others; iid random; capture-like single survivor).
// From r_cf on: if there is exactly one broadcaster, everyone receives its
// message (the ECF obligation); rounds with >= 2 broadcasters remain
// unconstrained and follow the configured contention behaviour.
#pragma once

#include "net/loss_adversary.hpp"
#include "util/rng.hpp"

namespace ccd {

class EcfAdversary final : public LossAdversary {
 public:
  enum class PreMode {
    kDropOthers,   ///< every cross-process message is lost
    kRandom,       ///< iid delivery with probability p_deliver
    kCapture,      ///< each receiver captures one random broadcaster w.p.
                   ///< p_deliver, else hears nothing
  };
  enum class ContentionMode {
    kOwnOnly,      ///< >=2 broadcasters: receivers hear only themselves
    kRandom,       ///< iid per link
    kCapture,      ///< capture effect per receiver
    kDeliverAll,   ///< loss never forced: everyone hears everything
  };

  struct Options {
    Round r_cf = 1;
    PreMode pre = PreMode::kRandom;
    ContentionMode contention = ContentionMode::kCapture;
    double p_deliver = 0.5;
    std::uint64_t seed = 3;
  };

  explicit EcfAdversary(Options opts);

  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;
  Round r_cf() const override { return opts_.r_cf; }
  const char* name() const override { return "EcfAdversary"; }

 private:
  Options opts_;
  Rng rng_;
};

}  // namespace ccd
