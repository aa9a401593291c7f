// The trivial contention manager NOCM_P (Section 4.2): every process is
// advised active in every round.  Algorithm 3 runs under this class because
// without eventual collision freedom there is nothing a single broadcaster
// gains from solo access to the channel.
#pragma once

#include "cm/contention_manager.hpp"

namespace ccd {

class NoCm final : public ContentionManager {
 public:
  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return kNeverRound; }
};

}  // namespace ccd
