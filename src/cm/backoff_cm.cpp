#include "cm/backoff_cm.hpp"

namespace ccd {

BackoffCm::BackoffCm(Options opts) : opts_(opts), rng_(opts.seed) {}

void BackoffCm::advise(Round round, BitView participating,
                       std::vector<CmAdvice>& out) {
  const auto n = participating.size();
  out.assign(n, CmAdvice::kPassive);
  if (window_.size() < n) {
    window_.resize(n, opts_.initial_window);
  }

  if (locked_process_ != kNoLock) {
    if (locked_process_ < n && participating.test(locked_process_)) {
      out[locked_process_] = CmAdvice::kActive;
      return;
    }
    // Locked leader crashed; resume contention.
    locked_process_ = kNoLock;
  }

  std::uint32_t active_count = 0;
  std::uint32_t last = 0;
  participating.for_each([&](std::size_t i) {
    if (rng_.below(window_[i]) == 0) {
      out[i] = CmAdvice::kActive;
      ++active_count;
      last = static_cast<std::uint32_t>(i);
    }
  });

  if (active_count == 1) {
    locked_process_ = last;
    if (locked_round_ == kNeverRound) locked_round_ = round;
  } else if (active_count >= 2) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] == CmAdvice::kActive && window_[i] < opts_.max_window) {
        window_[i] *= 2;
      }
    }
  } else {
    // Silence: speed everyone back up a little so the channel is not idle.
    participating.for_each([&](std::size_t i) {
      if (window_[i] > 1) window_[i] -= 1;
    });
  }
}

}  // namespace ccd
