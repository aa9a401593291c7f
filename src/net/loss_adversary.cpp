#include "net/loss_adversary.hpp"

#include <algorithm>

namespace ccd {

void DeliveryMatrix::reset(std::size_t n) {
  n_ = n;
  words_ = word_count(n);
  bits_.assign(n * words_, 0);
}

void DeliveryMatrix::deliver_to_all(BitView senders) {
  senders.for_each([&](std::size_t j) {
    std::uint64_t* row = bits_.data() + j * words_;
    std::fill(row, row + words_, ~std::uint64_t{0});
    if (n_ % 64) row[words_ - 1] = (std::uint64_t{1} << (n_ % 64)) - 1;
  });
}

void DeliveryMatrix::deliver_iid(BitView senders, double p, Rng& rng) {
  senders.for_each([&](std::size_t j) {
    for (std::size_t i = 0; i < n_; ++i) {
      if (i == j || rng.chance(p)) set(i, j, true);
    }
  });
}

void DeliveryMatrix::deliver_captured(BitView senders, double p, Rng& rng) {
  const std::uint32_t c = senders.count();
  for (std::size_t i = 0; i < n_; ++i) {
    if (rng.chance(p)) set(i, senders.nth(rng.below(c)), true);
  }
}

}  // namespace ccd
