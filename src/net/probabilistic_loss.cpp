#include "net/probabilistic_loss.hpp"

namespace ccd {

ProbabilisticLoss::ProbabilisticLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void ProbabilisticLoss::decide_delivery(Round round, BitView sent,
                                        DeliveryMatrix& out) {
  if (opts_.r_cf != kNeverRound && round >= opts_.r_cf && sent.count() == 1) {
    out.deliver_to_all(sent);  // ECF: the lone broadcaster, no draws
    return;
  }
  // Every receiver draws, in range of the sender or not: the stream does
  // not depend on the topology the engine masks the matrix with.
  out.deliver_iid(sent, opts_.p_deliver, rng_);
}

}  // namespace ccd
