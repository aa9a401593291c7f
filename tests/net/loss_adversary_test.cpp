#include <gtest/gtest.h>

#include "net/capture_effect.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/partition_adversary.hpp"
#include "net/probabilistic_loss.hpp"
#include "net/unrestricted_loss.hpp"
#include "util/bitwords.hpp"

namespace ccd {
namespace {

std::uint32_t received_count(const DeliveryMatrix& m, const BitSet& sent,
                             std::size_t receiver) {
  std::uint32_t n = 0;
  for (std::size_t j = 0; j < sent.size(); ++j) {
    if (sent.test(j) && m.delivered(receiver, j)) ++n;
  }
  return n;
}

TEST(NoLoss, DeliversEverythingToEveryone) {
  NoLoss loss;
  const BitSet sent = {true, false, true, true};
  DeliveryMatrix m;
  m.reset(4);
  loss.decide_delivery(1, sent, m);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 3u);
  }
  EXPECT_EQ(loss.r_cf(), 1u);
}

TEST(NoLoss, SetsExactlyTheSentRowsAtTheWordBoundary) {
  // n = 64 fills one whole word per row; n = 65 leaves a partial second
  // word whose bits at or above n must stay zero.
  for (std::size_t n : {64u, 65u}) {
    BitSet sent(n);
    for (std::size_t j : {0u, 1u, 63u}) sent.set(j);
    if (n > 64) sent.set(64);
    DeliveryMatrix m;
    m.reset(n);
    NoLoss().decide_delivery(1, sent, m);
    for (std::size_t j = 0; j < n; ++j) {
      const BitView row = m.receivers(j);
      EXPECT_EQ(row.count(), sent.test(j) ? n : 0u)
          << "n " << n << " row " << j;
      if (n % 64) {
        EXPECT_EQ(row.words().back() >> (n % 64), 0u)
            << "n " << n << " row " << j;
      }
    }
  }
}

TEST(EcfAdversary, HonorsEcfObligationAfterRcf) {
  EcfAdversary::Options opts;
  opts.r_cf = 10;
  opts.pre = EcfAdversary::PreMode::kDropOthers;
  EcfAdversary loss(opts);
  const BitSet sent = {false, true, false};
  DeliveryMatrix m;
  // Before r_cf a lone broadcast may vanish entirely.
  m.reset(3);
  loss.decide_delivery(9, sent, m);
  EXPECT_EQ(received_count(m, sent, 0), 0u);
  // From r_cf on everyone hears the lone broadcaster.
  m.reset(3);
  loss.decide_delivery(10, sent, m);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(m.delivered(i, 1));
  }
}

TEST(EcfAdversary, ContentionRemainsUnconstrainedAfterRcf) {
  EcfAdversary::Options opts;
  opts.r_cf = 1;
  opts.contention = EcfAdversary::ContentionMode::kOwnOnly;
  EcfAdversary loss(opts);
  const BitSet sent = {true, true, false};
  DeliveryMatrix m;
  m.reset(3);
  loss.decide_delivery(5, sent, m);
  // Two broadcasters: adversary may drop everything (executor adds
  // self-delivery afterwards).
  EXPECT_EQ(received_count(m, sent, 2), 0u);
}

TEST(EcfAdversary, DeliverAllContentionMode) {
  EcfAdversary::Options opts;
  opts.r_cf = 1;
  opts.contention = EcfAdversary::ContentionMode::kDeliverAll;
  EcfAdversary loss(opts);
  const BitSet sent = {true, true, true};
  DeliveryMatrix m;
  m.reset(3);
  loss.decide_delivery(2, sent, m);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 3u);
  }
}

TEST(UnrestrictedLoss, DropOthersNeverDelivers) {
  UnrestrictedLoss loss({UnrestrictedLoss::Mode::kDropOthers, 0.5, 1});
  const BitSet sent = {true, true};
  DeliveryMatrix m;
  for (Round r = 1; r <= 100; ++r) {
    m.reset(2);
    loss.decide_delivery(r, sent, m);
    EXPECT_FALSE(m.delivered(0, 1));
    EXPECT_FALSE(m.delivered(1, 0));
  }
  EXPECT_EQ(loss.r_cf(), kNeverRound);
}

TEST(UnrestrictedLoss, RandomModeDeliversSelfAlways) {
  UnrestrictedLoss loss({UnrestrictedLoss::Mode::kRandom, 0.5, 2});
  const BitSet sent = {true, true, true};
  DeliveryMatrix m;
  m.reset(3);
  loss.decide_delivery(1, sent, m);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(m.delivered(i, i));
}

TEST(PartitionAdversary, CrossGroupAlwaysLostBeforeHeal) {
  PartitionAdversary loss({.split = 2, .heal_round = 10});
  const BitSet sent = {true, false, true, false};
  DeliveryMatrix m;
  m.reset(4);
  loss.decide_delivery(5, sent, m);
  // Lone broadcaster per group: delivered within the group only.
  EXPECT_TRUE(m.delivered(0, 0));
  EXPECT_TRUE(m.delivered(1, 0));
  EXPECT_FALSE(m.delivered(2, 0));
  EXPECT_FALSE(m.delivered(3, 0));
  EXPECT_TRUE(m.delivered(2, 2));
  EXPECT_TRUE(m.delivered(3, 2));
  EXPECT_FALSE(m.delivered(0, 2));
}

TEST(PartitionAdversary, ContentionWithinGroupOnlySelf) {
  PartitionAdversary loss({.split = 2, .heal_round = kNeverRound});
  const BitSet sent = {true, true, false, false};
  DeliveryMatrix m;
  m.reset(4);
  loss.decide_delivery(3, sent, m);
  // Two broadcasters in group A: nothing delivered (self-delivery is the
  // executor's job).
  EXPECT_FALSE(m.delivered(1, 0));
  EXPECT_FALSE(m.delivered(0, 1));
}

TEST(PartitionAdversary, HealedChannelIsPerfect) {
  PartitionAdversary loss({.split = 2, .heal_round = 4});
  const BitSet sent = {true, true, true, true};
  DeliveryMatrix m;
  m.reset(4);
  loss.decide_delivery(4, sent, m);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 4u);
  }
  EXPECT_EQ(loss.r_cf(), 4u);
}

TEST(CaptureEffect, AtMostOneCaptureUnderContention) {
  CaptureEffectLoss loss({.p_capture = 1.0, .p_single_deliver = 1.0,
                          .r_cf = 1, .seed = 3});
  const BitSet sent = {true, true, true, false};
  DeliveryMatrix m;
  for (Round r = 1; r <= 50; ++r) {
    m.reset(4);
    loss.decide_delivery(r, sent, m);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(received_count(m, sent, i), 1u) << "receiver " << i;
    }
  }
}

TEST(CaptureEffect, LoneBroadcastGuaranteedAfterRcf) {
  CaptureEffectLoss loss({.p_capture = 0.5, .p_single_deliver = 0.0,
                          .r_cf = 7, .seed = 4});
  const BitSet sent = {true, false};
  DeliveryMatrix m;
  m.reset(2);
  loss.decide_delivery(6, sent, m);
  EXPECT_FALSE(m.delivered(1, 0));  // p_single_deliver = 0 before r_cf
  m.reset(2);
  loss.decide_delivery(7, sent, m);
  EXPECT_TRUE(m.delivered(1, 0));
}

TEST(ProbabilisticLoss, RateRoughlyMatchesP) {
  ProbabilisticLoss loss({.p_deliver = 0.7, .r_cf = kNeverRound, .seed = 9});
  const BitSet sent = {true, false};
  DeliveryMatrix m;
  int delivered = 0;
  const int trials = 5000;
  for (int r = 1; r <= trials; ++r) {
    m.reset(2);
    loss.decide_delivery(static_cast<Round>(r), sent, m);
    delivered += m.delivered(1, 0) ? 1 : 0;
  }
  EXPECT_NEAR(delivered / static_cast<double>(trials), 0.7, 0.03);
}

TEST(ProbabilisticLoss, EcfVariantGuaranteesLoneBroadcast) {
  ProbabilisticLoss loss({.p_deliver = 0.0, .r_cf = 3, .seed = 10});
  const BitSet sent = {true, false};
  DeliveryMatrix m;
  m.reset(2);
  loss.decide_delivery(3, sent, m);
  EXPECT_TRUE(m.delivered(1, 0));
}

}  // namespace
}  // namespace ccd
