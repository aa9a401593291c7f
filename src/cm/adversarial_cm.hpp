// Adversarial contention managers used by the lower-bound constructions.
//
// MAXLS_P (Definition 14) is the maximal leader election service: the set
// of ALL advice traces satisfying the LS property.  A lower-bound adversary
// is free to pick any trace in that set.  Two shapes recur in the proofs:
//
//  * ScriptedCm      - fully scripted per-round advice (e.g. the executions
//                      built in Theorems 4 and 8, where for the first k
//                      rounds two group-minima are active and afterwards a
//                      single one is).
//  * TwoGroupMaxLs   - the composition-friendly trace of Lemma 23: for the
//                      first k rounds min(R) and min(R') are both active;
//                      from round k+1 only min(R) is.  This is a legal LS
//                      trace because stabilization occurs at k+1.
#pragma once

#include <vector>

#include "cm/contention_manager.hpp"

namespace ccd {

class ScriptedCm final : public ContentionManager {
 public:
  /// `script[r-1]` is the advice vector for round r; rounds beyond the
  /// script replay the final entry.
  ScriptedCm(std::vector<std::vector<CmAdvice>> script, Round stabilization);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return stabilization_; }
  const char* name() const override { return "ScriptedCm"; }

 private:
  std::vector<std::vector<CmAdvice>> script_;
  Round stabilization_;
};

class TwoGroupMaxLs final : public ContentionManager {
 public:
  /// Processes [0, split) form group R, [split, n) form group R'.  Through
  /// round k both group minima (0 and split) are active; afterwards only 0.
  TwoGroupMaxLs(std::uint32_t split, Round k);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return k_ + 1; }
  const char* name() const override { return "TwoGroupMaxLs"; }

 private:
  std::uint32_t split_;
  Round k_;
};

}  // namespace ccd
