#include "cm/k_wakeup.hpp"

namespace ccd {

KWakeupService::KWakeupService(Options options) : options_(options) {}

void KWakeupService::advise(Round round, BitView participating,
                            std::vector<CmAdvice>& out) {
  const std::size_t n = participating.size();
  out.assign(n, CmAdvice::kPassive);
  if (round < options_.r_wake) {
    out.assign(n, CmAdvice::kActive);
    return;
  }
  if (n == 0) return;
  std::uint64_t slot = (round - options_.r_wake) / options_.k;
  if (!options_.repeat && slot >= n) return;  // rotation done; all passive
  // The schedule is defined over process INDICES (it is a formal trace and
  // may name crashed processes; Property-style contention managers are
  // oblivious).  Crashed holders simply waste their window.
  out[slot % n] = CmAdvice::kActive;
}

}  // namespace ccd
