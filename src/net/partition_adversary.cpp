#include "net/partition_adversary.hpp"

namespace ccd {

PartitionAdversary::PartitionAdversary(Options opts) : opts_(opts) {}

void PartitionAdversary::deliver_within_group(std::size_t lo, std::size_t hi,
                                              BitView sent,
                                              DeliveryMatrix& out) const {
  std::size_t broadcasters = 0;
  std::size_t lone = lo;
  for (std::size_t j = lo; j < hi; ++j) {
    if (sent.test(j)) {
      ++broadcasters;
      lone = j;
    }
  }
  if (broadcasters == 1) {
    for (std::size_t i = lo; i < hi; ++i) out.set(i, lone, true);
  }
  // broadcasters >= 2: only self-delivery (enforced by the executor);
  // broadcasters == 0: nothing to deliver.
}

void PartitionAdversary::decide_delivery(Round round, BitView sent,
                                         DeliveryMatrix& out) {
  const std::size_t n = sent.size();
  if (round >= opts_.heal_round) {
    out.deliver_to_all(sent);
    return;
  }
  const std::size_t split = opts_.split < n ? opts_.split : n;
  deliver_within_group(0, split, sent, out);
  deliver_within_group(split, n, sent, out);
}

}  // namespace ccd
