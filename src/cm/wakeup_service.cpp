#include "cm/wakeup_service.hpp"

namespace ccd {

WakeupService::WakeupService(Options opts) : opts_(opts), rng_(opts.seed) {}

void WakeupService::advise(Round round, BitView participating,
                           std::vector<CmAdvice>& out) {
  const auto n = participating.size();
  out.assign(n, CmAdvice::kPassive);

  if (round < opts_.r_wake) {
    switch (opts_.pre) {
      case PreStabilization::kAllActive:
        out.assign(n, CmAdvice::kActive);
        break;
      case PreStabilization::kAllPassive:
        break;
      case PreStabilization::kRandomSubset:
        // One coin per process, participating or not.
        for (std::size_t i = 0; i < n; ++i) {
          if (rng_.chance(0.5)) out[i] = CmAdvice::kActive;
        }
        break;
      case PreStabilization::kAlternating:
        if (round % 2 == 1) out.assign(n, CmAdvice::kActive);
        break;
    }
    return;
  }

  // Stabilized: exactly one process is advised active.
  switch (opts_.post) {
    case PostStabilization::kMinAlive: {
      // Nobody participating: advising nobody is vacuously fine.
      const std::size_t first = participating.first();
      if (first < n) out[first] = CmAdvice::kActive;
      break;
    }
    case PostStabilization::kRotateAlive: {
      const std::uint32_t count = participating.count();
      if (count == 0) break;
      out[participating.nth(rotate_cursor_++ % count)] = CmAdvice::kActive;
      break;
    }
    case PostStabilization::kFixedMin: {
      if (n > 0) out[0] = CmAdvice::kActive;
      break;
    }
  }
}

}  // namespace ccd
