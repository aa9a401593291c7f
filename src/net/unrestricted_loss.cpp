#include "net/unrestricted_loss.hpp"

namespace ccd {

UnrestrictedLoss::UnrestrictedLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void UnrestrictedLoss::decide_delivery(Round /*round*/, BitView sent,
                                       DeliveryMatrix& out) {
  if (opts_.mode == Mode::kDropOthers) return;  // only self-delivery survives
  out.deliver_iid(sent, opts_.p_deliver, rng_);
}

}  // namespace ccd
