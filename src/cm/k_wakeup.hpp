// k-wake-up service (Section 4.1's closing remark): a contention manager
// that guarantees every process k rounds of being the ONLY active process.
// Strictly stronger than a wake-up service and incomparable to a leader
// election service: the paper notes there are simple problems -- counting
// the number of anonymous processes -- solvable with a k-wake-up service
// but impossible with a leader election service (which may never schedule
// anyone but the leader).  consensus/counting.hpp exercises exactly that.
#pragma once

#include "cm/contention_manager.hpp"

namespace ccd {

class KWakeupService final : public ContentionManager {
 public:
  struct Options {
    Round r_wake = 1;       ///< rotation begins here; everyone active before
    std::uint32_t k = 1;    ///< consecutive solo rounds per process
    bool repeat = true;     ///< keep cycling after every process was served
  };

  explicit KWakeupService(Options options);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return options_.r_wake; }
  const char* name() const override { return "KWakeupService"; }

  /// First round by which every one of n processes has completed its k
  /// solo rounds (assuming no crashes).
  Round rotation_complete(std::size_t n) const {
    return options_.r_wake + static_cast<Round>(n) * options_.k - 1;
  }

 private:
  Options options_;
};

}  // namespace ccd
