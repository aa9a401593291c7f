// Perfectly reliable broadcast: every message reaches every process.
// Trivially satisfies ECF with r_cf = 1.  Baseline for sanity tests and the
// alpha/beta executions' "no message loss" legs (Theorems 4, 8).
#pragma once

#include "net/loss_adversary.hpp"

namespace ccd {

class NoLoss final : public LossAdversary {
 public:
  void decide_delivery(Round round, BitView sent,
                       DeliveryMatrix& out) override;
  Round r_cf() const override { return 1; }
  bool always_delivers() const override { return true; }
  const char* name() const override { return "NoLoss"; }
};

}  // namespace ccd
