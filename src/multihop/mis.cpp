#include "multihop/mis.hpp"

#include <algorithm>

namespace ccd {

namespace {
constexpr std::uint64_t kCandidacyTag = 1;
constexpr std::uint64_t kHeadTag = 2;
}  // namespace

MisProcess::MisProcess(Options options)
    : options_(options),
      rng_(options.seed),
      p_current_(options.p_candidate) {}

std::optional<Message> MisProcess::on_send(Round round, CmAdvice /*cm*/) {
  if (is_candidacy_round(round)) {
    candidate_this_phase_ = false;
    if (state_ == State::kUndecided && rng_.chance(p_current_)) {
      candidate_this_phase_ = true;
      return Message{Message::Kind::kVote, 0, kCandidacyTag};
    }
    return std::nullopt;
  }
  // Announce round: heads (old and new) mark their neighbourhoods, every
  // phase, so late deciders still get dominated.
  if (state_ == State::kHead) {
    return Message{Message::Kind::kLeaderValue, 0, kHeadTag};
  }
  return std::nullopt;
}

void MisProcess::on_receive(Round round, std::span<const Message> received,
                            CdAdvice cd, CmAdvice /*cm*/) {
  // A dominated node has exited: it never sends again, so nothing it could
  // update here (its backoff probability) is ever read.
  if (state_ == State::kDominated) return;
  if (is_candidacy_round(round)) {
    // Count candidacy marks from OTHERS (a broadcaster always hears its
    // own mark back).
    std::size_t marks = 0;
    for (const Message& m : received) {
      if (m.tag == kCandidacyTag) ++marks;
    }
    const std::size_t own = candidate_this_phase_ ? 1 : 0;
    const bool heard_rival = marks > own || cd == CdAdvice::kCollision;
    if (state_ == State::kUndecided && candidate_this_phase_ &&
        !heard_rival) {
      // Silence (trustworthy, given accuracy) certifies that no
      // neighbouring candidate broadcast: safe to become head.
      state_ = State::kHead;
    }
    if (heard_rival) {
      // Congestion: back off so a lone candidate can emerge.
      p_current_ = std::max(options_.p_min, p_current_ * 0.5);
    } else {
      p_current_ = std::min(options_.p_candidate, p_current_ * 1.2);
    }
    return;
  }

  // Announce round.
  if (state_ != State::kUndecided) return;
  const bool head_mark =
      std::any_of(received.begin(), received.end(),
                  [](const Message& m) { return m.tag == kHeadTag; });
  // With an accurate detector, a collision report in an announce round
  // proves a broadcasting neighbour -- which can only be a head.
  if (head_mark || cd == CdAdvice::kCollision) {
    state_ = State::kDominated;
    // Forget the phase's candidacy so on_send's reset is a no-op too.
    candidate_this_phase_ = false;
    set_dormant(true);
  }
}

}  // namespace ccd
