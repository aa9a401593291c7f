#include "net/capture_effect.hpp"

namespace ccd {

CaptureEffectLoss::CaptureEffectLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void CaptureEffectLoss::decide_delivery(Round round, BitView sent,
                                        DeliveryMatrix& out) {
  const std::uint32_t c = sent.count();
  if (c == 0) return;

  if (c == 1) {
    const std::size_t j = sent.first();
    const bool guaranteed = opts_.r_cf != kNeverRound && round >= opts_.r_cf;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (guaranteed || rng_.chance(opts_.p_single_deliver)) {
        out.set(i, j, true);
      }
    }
    return;
  }

  // Contention: each receiver captures at most one transmission.
  out.deliver_captured(sent, opts_.p_capture, rng_);
}

}  // namespace ccd
