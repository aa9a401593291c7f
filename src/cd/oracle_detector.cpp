#include "cd/oracle_detector.hpp"

#include <cassert>

namespace ccd {

OracleDetector::OracleDetector(DetectorSpec spec,
                               std::unique_ptr<AdvicePolicy> policy)
    : spec_(spec), policy_(std::move(policy)) {
  assert(policy_ != nullptr);
}

CdAdvice OracleDetector::resolve(Round round, ProcessId i, std::uint32_t c,
                                 std::uint32_t t) {
  const bool pm_forced = spec_.collision_forced(c, t);
  const bool null_forced = spec_.null_forced(round, c, t);
  // The two forced sets are disjoint: completeness only forces when t < c
  // (or NoCD, which has no accuracy), accuracy only when t == c.
  assert(!(pm_forced && null_forced));
  CdAdvice advice;
  if (pm_forced) {
    advice = CdAdvice::kCollision;
  } else if (null_forced) {
    advice = CdAdvice::kNull;
  } else {
    advice = policy_->choose(round, i, c, t);
  }
  assert(spec_.advice_legal(round, c, t, advice));
  return advice;
}

void OracleDetector::advise(Round round, std::uint32_t c,
                            const std::vector<std::uint32_t>& t,
                            std::vector<CdAdvice>& out) {
  // One envelope resolution for both scopes: the global oracle is the
  // per-process resolution applied with the same c everywhere.
  out.resize(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out[i] = resolve(round, static_cast<ProcessId>(i), c, t[i]);
  }
}

void OracleDetector::advise_local(Round round, BitView alive,
                                  const std::vector<std::uint32_t>& c,
                                  const std::vector<std::uint32_t>& t,
                                  std::vector<CdAdvice>& out) {
  alive.for_each([&](std::size_t i) {
    out[i] = resolve(round, static_cast<ProcessId>(i), c[i], t[i]);
  });
}

bool cd_trace_legal(const DetectorSpec& spec, const TransmissionTrace& tt,
                    const CdTrace& cd) {
  const std::size_t rounds =
      tt.num_rounds() < cd.num_rounds() ? tt.num_rounds() : cd.num_rounds();
  for (Round r = 1; r <= rounds; ++r) {
    const TransmissionRound& tr = tt.at(r);
    const std::vector<CdAdvice>& advice = cd.at(r);
    if (advice.size() != tr.receive_count.size()) return false;
    for (std::size_t i = 0; i < advice.size(); ++i) {
      if (!spec.advice_legal(r, tr.broadcaster_count, tr.receive_count[i],
                             advice[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace ccd
