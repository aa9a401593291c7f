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

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "cd/detector_spec.hpp"
#include "cd/policies.hpp"
#include "model/traces.hpp"
#include "model/types.hpp"
#include "util/bitwords.hpp"

namespace ccd {

/// Saturating neighbour-count planes a capture round needs: the deepest
/// question is half completeness for a sender that captured (t = 2, so
/// forced iff 2t < c, i.e. at least 4 broadcasting neighbours).
inline constexpr std::size_t kCapturePlanes = 4;

/// One capture-channel round's transmission data (the kCapture channel of
/// the round engine) as word rows over n processes, ceil(n/64) words each.
/// A capture receiver gets at most its own message and one captured
/// neighbour's, so t <= 2 and every class's forced report is a formula
/// over the neighbour-count planes; only a process the envelope leaves
/// free needs its exact c.
struct CaptureRows {
  std::size_t n = 0;
  const std::uint64_t* alive = nullptr;
  const std::uint64_t* sent = nullptr;  ///< S: broadcast this round
  const std::uint64_t* got = nullptr;   ///< G: captured a neighbour
  /// heard[k]: processes with at least k + 1 broadcasting neighbours.
  std::array<const std::uint64_t*, kCapturePlanes> heard{};
  /// Adjacency rows, neighbours of i at adj + i * word_count(n).
  const std::uint64_t* adj = nullptr;
};

/// Advice rows: bit i of a collision row is set iff process i is told
/// "+-" (kCollision), clear iff it is told null.
class OracleDetector {
 public:
  OracleDetector(DetectorSpec spec, std::unique_ptr<AdvicePolicy> policy);

  /// Advice for every process in one round.  `c` is the number of
  /// broadcasters, `t[i]` the number of messages process i received;
  /// `collision` holds word_count(t.size()) words.
  void advise(Round round, std::uint32_t c, std::span<const std::uint32_t> t,
              std::span<std::uint64_t> collision);

  /// Advice from local neighborhood counts, for every process in `alive`
  /// (ascending; alive.size() is n): process i's from (c[i], t[i]) by the
  /// same forced-report/free-choice resolution as advise().  Processes
  /// outside `alive` read null.  This is how the round engine's
  /// per-neighborhood scope (CollisionScope::kLocal) consults the detector
  /// over a delivery matrix -- the class envelope is identical, only the
  /// scope of c changes.
  void advise_local(Round round, BitView alive,
                    std::span<const std::uint32_t> c,
                    std::span<const std::uint32_t> t,
                    std::span<std::uint64_t> collision);

  /// advise_local on the capture channel, from the round's rows: with
  /// c = S + heard and t = S + G, each forced report is a word formula
  /// over (S, G, heard >= 1..4).  Each live process the envelope leaves
  /// free is resolved by one policy choice with its exact (c, t), in
  /// ascending order -- the same policy calls as advise_local.
  void advise_capture(Round round, const CaptureRows& rows,
                      std::span<std::uint64_t> collision);

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
