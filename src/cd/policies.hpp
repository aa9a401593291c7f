// Advice policies: how a detector behaves INSIDE its legal envelope.
//
// A detector class only constrains behaviour (forced "+-" by completeness,
// forced "null" by accuracy); everything else is a free choice.  Upper
// bounds must work for ANY choice; lower bounds get to PICK the choice
// (maximal detectors, Definition 15).  The OracleDetector consults a policy
// exactly when both reports are legal.
#pragma once

#include <cstdint>
#include <memory>

#include "model/types.hpp"
#include "util/rng.hpp"

namespace ccd {

class AdvicePolicy {
 public:
  virtual ~AdvicePolicy() = default;

  /// Called only when both kNull and kCollision are legal for (r, c, t).
  virtual CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                          std::uint32_t t) = 0;
};

/// Report "+-" exactly when messages were lost (t < c).  This is the
/// canonical complete-and-accurate detector projected into any class's
/// envelope; with spec AC it is the perfect detector.
class TruthfulPolicy final : public AdvicePolicy {
 public:
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;
};

/// Suppress every report that is not forced.  Against zero/half-complete
/// specs this hides as much loss as the class allows; it is the adversary
/// used by the half-AC lower bound composition (Lemma 23), where the
/// "exactly half received" rounds legally pass unreported.
class PreferNullPolicy final : public AdvicePolicy {
 public:
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;
};

/// Report "+-" whenever legal: a maximally noisy (but class-legal)
/// detector.  With an eventually-accurate spec this yields false positives
/// in every round before r_acc -- the behaviour Theorems 4/8 exploit.
class PreferCollisionPolicy final : public AdvicePolicy {
 public:
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;
};

/// Truthful, plus independent false positives with probability p in rounds
/// before `spurious_until` (when legal).  Models a practical eventually
/// accurate detector experiencing environmental noise early on.
class SpuriousPolicy final : public AdvicePolicy {
 public:
  SpuriousPolicy(double p, Round spurious_until, std::uint64_t seed);
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;

 private:
  double p_;
  Round spurious_until_;
  Rng rng_;
};

/// Models the detectors measured in Section 1.3: zero completeness holds in
/// 100% of rounds (that part is enforced by the spec's envelope), and
/// *majority* losses are additionally reported with probability q per
/// process-round.  Pair with DetectorSpec::ZeroOAC / ZeroAC.
class FlakyMajorityPolicy final : public AdvicePolicy {
 public:
  FlakyMajorityPolicy(double q, std::uint64_t seed);
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;

 private:
  double q_;
  Rng rng_;
};

/// Uniformly random legal advice; a fuzzing policy for robustness tests.
class RandomLegalPolicy final : public AdvicePolicy {
 public:
  explicit RandomLegalPolicy(std::uint64_t seed);
  CdAdvice choose(Round round, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override;

 private:
  Rng rng_;
};

std::unique_ptr<AdvicePolicy> make_truthful_policy();
std::unique_ptr<AdvicePolicy> make_prefer_null_policy();
std::unique_ptr<AdvicePolicy> make_prefer_collision_policy();

}  // namespace ccd
