#include "cm/adversarial_cm.hpp"

#include <cassert>

namespace ccd {

ScriptedCm::ScriptedCm(std::vector<std::vector<CmAdvice>> script,
                       Round stabilization)
    : script_(std::move(script)), stabilization_(stabilization) {
  assert(!script_.empty());
}

void ScriptedCm::advise(Round round, BitView participating,
                        std::vector<CmAdvice>& out) {
  const std::size_t idx =
      round - 1 < script_.size() ? round - 1 : script_.size() - 1;
  out = script_[idx];
  out.resize(participating.size(), CmAdvice::kPassive);
}

TwoGroupMaxLs::TwoGroupMaxLs(std::uint32_t split, Round k)
    : split_(split), k_(k) {}

void TwoGroupMaxLs::advise(Round round, BitView participating,
                           std::vector<CmAdvice>& out) {
  const auto n = participating.size();
  out.assign(n, CmAdvice::kPassive);
  if (n == 0) return;
  out[0] = CmAdvice::kActive;
  if (round <= k_ && split_ < n) out[split_] = CmAdvice::kActive;
}

}  // namespace ccd
