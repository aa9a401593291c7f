#include "cm/leader_election.hpp"

namespace ccd {

namespace {
std::uint32_t lowest_participant(BitView participating) {
  const std::size_t first = participating.first();
  return first < participating.size()
             ? static_cast<std::uint32_t>(first)
             : LeaderElectionService::Options::kNoLeader;
}
}  // namespace

LeaderElectionService::LeaderElectionService(Options opts) : opts_(opts) {
  leader_ = opts_.leader;
}

void LeaderElectionService::advise(Round round, BitView participating,
                                   std::vector<CmAdvice>& out) {
  const auto n = participating.size();
  out.assign(n, CmAdvice::kPassive);

  if (round < opts_.r_lead) {
    if (opts_.pre_all_active) out.assign(n, CmAdvice::kActive);
    return;
  }

  if (leader_ == Options::kNoLeader) {
    leader_ = lowest_participant(participating);
  }
  if (leader_ != Options::kNoLeader && leader_ < n &&
      !participating.test(leader_) && opts_.adapt_on_crash) {
    leader_ = lowest_participant(participating);
  }
  if (leader_ != Options::kNoLeader && leader_ < n) {
    out[leader_] = CmAdvice::kActive;
  }
}

}  // namespace ccd
