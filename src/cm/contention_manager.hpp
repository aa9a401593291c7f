// Contention managers (Section 4).
//
// A P-contention manager (Definition 8) is a set of P-CM traces: per round
// it advises each process active or passive.  The paper's classes:
//
//   * NoCM  - the trivial manager: everyone active, every round (Def of
//             NOCM_P, Section 4.2).
//   * WS    - wake-up service (Property 2): there is a round r_wake after
//             which exactly ONE process is advised active each round (not
//             necessarily the same one).
//   * LS    - leader election service (Property 3): after r_lead the SAME
//             single process is advised active; LS is a subset of WS.
//
// The formal definition deliberately decouples the manager from the
// execution ("oblivious" traces); concrete implementations such as backoff
// protocols monitor the channel.  We support both: advise() receives the
// set of participating processes and managers may use observe() feedback,
// while scripted adversarial managers ignore them.
#pragma once

#include <cstdint>
#include <vector>

#include "model/types.hpp"
#include "util/bitwords.hpp"

namespace ccd {

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  /// Produce advice for round r (out is resized to the process count by the
  /// executor).  `participating` is the round's participants: the processes
  /// neither crashed nor halted, as bit words (participating.size() is n,
  /// bits at or above n are zero).  Practical services adapt to it, formal
  /// adversarial ones may ignore it.
  virtual void advise(Round round, BitView participating,
                      std::vector<CmAdvice>& out) = 0;

  /// Channel feedback after the round's broadcasts: how many processes
  /// actually transmitted.  Concrete managers (backoff) use this; the
  /// default ignores it.
  virtual void observe(Round /*round*/, std::uint32_t /*broadcasters*/) {}

  /// The stabilization round r_wake / r_lead this manager guarantees, used
  /// by the harness to compute CST (Definition 20).  kNeverRound when the
  /// manager offers no such guarantee a priori (NoCM) or when stabilization
  /// is emergent (backoff: see stabilized_at()).
  virtual Round stabilization_round() const = 0;
};

}  // namespace ccd
