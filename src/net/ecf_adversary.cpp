#include "net/ecf_adversary.hpp"

namespace ccd {

EcfAdversary::EcfAdversary(Options opts) : opts_(opts), rng_(opts.seed) {}

void EcfAdversary::decide_delivery(Round round, BitView sent,
                                   DeliveryMatrix& out) {
  const std::uint32_t c = sent.count();
  if (c == 0) return;

  if (round >= opts_.r_cf && c == 1) {
    // ECF obligation: the lone broadcaster is heard by everyone.
    out.deliver_to_all(sent);
    return;
  }

  if (round < opts_.r_cf) {
    switch (opts_.pre) {
      case PreMode::kDropOthers:
        return;  // self-delivery is enforced by the executor
      case PreMode::kRandom:
        out.deliver_iid(sent, opts_.p_deliver, rng_);
        return;
      case PreMode::kCapture:
        out.deliver_captured(sent, opts_.p_deliver, rng_);
        return;
    }
    return;
  }

  // round >= r_cf with contention (c >= 2): unconstrained.
  switch (opts_.contention) {
    case ContentionMode::kOwnOnly:
      return;
    case ContentionMode::kRandom:
      out.deliver_iid(sent, opts_.p_deliver, rng_);
      return;
    case ContentionMode::kCapture:
      out.deliver_captured(sent, opts_.p_deliver, rng_);
      return;
    case ContentionMode::kDeliverAll:
      out.deliver_to_all(sent);
      return;
  }
}

}  // namespace ccd
