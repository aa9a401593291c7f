// OracleDetector: the single collision-detector implementation, driven by a
// DetectorSpec (which reports are forced) and an AdvicePolicy (free
// choices).  It enforces the class envelope: the emitted advice is legal by
// construction, and legality is re-checked with assertions so a buggy
// policy can never silently violate a completeness or accuracy property.
//
// This realizes the paper's Definition 6 operationally: given the round's
// transmission data (c, T), the detector emits one element of the legal
// P-CD trace set for its class; MAXCD (Definition 15) behaviours are
// reached by choosing adversarial policies.
#pragma once

#include <memory>
#include <vector>

#include "cd/detector_spec.hpp"
#include "cd/policies.hpp"
#include "model/traces.hpp"
#include "model/types.hpp"
#include "util/bitwords.hpp"

namespace ccd {

class OracleDetector {
 public:
  OracleDetector(DetectorSpec spec, std::unique_ptr<AdvicePolicy> policy);

  /// Advice for every process in one round.  `c` is the number of
  /// broadcasters, `t[i]` the number of messages process i received.
  void advise(Round round, std::uint32_t c, const std::vector<std::uint32_t>& t,
              std::vector<CdAdvice>& out);

  /// Advice from local neighborhood counts, for every process in `alive`
  /// (ascending; alive.size() is n): out[i] from (c[i], t[i]) by the same
  /// forced-report/free-choice resolution as advise().  Entries of
  /// processes outside `alive` are left as they are.  This is how the
  /// round engine's per-neighborhood scope (CollisionScope::kLocal)
  /// consults the detector -- the class envelope is identical, only the
  /// scope of c changes.
  void advise_local(Round round, BitView alive,
                    const std::vector<std::uint32_t>& c,
                    const std::vector<std::uint32_t>& t,
                    std::vector<CdAdvice>& out);

  const DetectorSpec& spec() const { return spec_; }
  const AdvicePolicy& policy() const { return *policy_; }

 private:
  /// One process's advice from (c, t): forced reports first, the policy's
  /// choice otherwise.
  CdAdvice resolve(Round round, ProcessId i, std::uint32_t c, std::uint32_t t);

  DetectorSpec spec_;
  std::unique_ptr<AdvicePolicy> policy_;
};

/// Check an entire (transmission trace, CD trace) pair against a spec --
/// the pairwise condition in Properties 4..9.  Used by tests and by the
/// Figure 1 class-table bench.
bool cd_trace_legal(const DetectorSpec& spec, const TransmissionTrace& tt,
                    const CdTrace& cd);

}  // namespace ccd
