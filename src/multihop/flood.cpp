#include "multihop/flood.hpp"

#include <algorithm>

namespace ccd {

FloodProcess::FloodProcess(Options options)
    : options_(options),
      rng_(options.seed),
      has_message_(options.is_source),
      received_at_(options.is_source ? 0 : kNeverRound),
      p_current_(options.p_broadcast) {
  set_dormant(!has_message_);
}

std::optional<Message> FloodProcess::on_send(Round round, CmAdvice /*cm*/) {
  if (!has_message_) return std::nullopt;
  if (round > holding_since_ + options_.fresh_rounds) return std::nullopt;
  if (rng_.chance(p_current_)) {
    return Message{Message::Kind::kPayload, /*value=*/1, /*tag=*/0};
  }
  return std::nullopt;
}

void FloodProcess::on_receive(Round round, std::span<const Message> received,
                              CdAdvice cd, CmAdvice /*cm*/) {
  if (!has_message_) {
    // The payload scan is only needed while we are still listening for the
    // message; holders take this branch never again, keeping their
    // per-round receive cost independent of the multiset size.  A round
    // without the payload changes nothing, whatever the advice: the
    // dormant promise.
    if (count_kind(received, Message::Kind::kPayload) > 0) {
      has_message_ = true;
      received_at_ = round;
      holding_since_ = round;
      set_dormant(false);
    }
    return;
  }

  if (options_.policy == FloodPolicy::kCdBackoff) {
    if (cd == CdAdvice::kCollision) {
      // Local congestion: other holders nearby are flooding too; back off
      // so lone broadcasts (which the channel delivers best) can form.
      p_current_ = std::max(options_.p_min, p_current_ * 0.5);
    } else {
      // Quiet neighbourhood: speed back up gently.
      p_current_ = std::min(options_.p_broadcast, p_current_ * 1.1);
    }
  }
}

}  // namespace ccd
