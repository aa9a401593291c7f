#include "model/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ccd {
namespace {

TEST(Message, DistinctValuesCountsAndTakesTheMin) {
  // Unsorted input: the count is exact and min is the least value.
  std::vector<Message> recv = {
      {Message::Kind::kEstimate, 5, 0}, {Message::Kind::kEstimate, 2, 0},
      {Message::Kind::kEstimate, 5, 0}, {Message::Kind::kVeto, 0, 0},
      {Message::Kind::kEstimate, 9, 0}};
  const DistinctValues values = distinct_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(values.count, 3u);
  EXPECT_EQ(values.min, 2u);  // the min the algorithms take
  // The engine's sorted form of the same multiset reads the same.
  std::sort(recv.begin(), recv.end());
  const DistinctValues sorted = distinct_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(sorted.count, 3u);
  EXPECT_EQ(sorted.min, 2u);
}

TEST(Message, DistinctValuesFiltersByKind) {
  std::vector<Message> recv = {{Message::Kind::kLeaderValue, 7, 0},
                               {Message::Kind::kEstimate, 3, 0}};
  const DistinctValues leader =
      distinct_values(recv, Message::Kind::kLeaderValue);
  EXPECT_EQ(leader.count, 1u);
  EXPECT_EQ(leader.min, 7u);
  const DistinctValues estimate =
      distinct_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(estimate.count, 1u);
  EXPECT_EQ(estimate.min, 3u);
  EXPECT_EQ(distinct_values(recv, Message::Kind::kVote).count, 0u);
}

TEST(Message, DistinctValuesMixedKindsUnsorted) {
  // Other kinds interleaved with the counted one, values out of order,
  // tags that differ on equal values: only (kind, value) matters.
  const std::vector<Message> recv = {
      {Message::Kind::kEstimate, 4, 1}, {Message::Kind::kVeto, 0, 0},
      {Message::Kind::kLeaderValue, 1, 0}, {Message::Kind::kEstimate, 4, 7},
      {Message::Kind::kEstimate, 3, 0}, {Message::Kind::kLeaderValue, 1, 2},
      {Message::Kind::kVeto, 0, 0}, {Message::Kind::kEstimate, 6, 0},
      {Message::Kind::kEstimate, 3, 9}};
  const DistinctValues est = distinct_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(est.count, 3u);
  EXPECT_EQ(est.min, 3u);
  const DistinctValues lead =
      distinct_values(recv, Message::Kind::kLeaderValue);
  EXPECT_EQ(lead.count, 1u);
  EXPECT_EQ(lead.min, 1u);
  // A descent seen only after a run of equal values still counts exactly.
  const std::vector<Message> late = {{Message::Kind::kEstimate, 2, 0},
                                     {Message::Kind::kEstimate, 2, 0},
                                     {Message::Kind::kEstimate, 1, 0},
                                     {Message::Kind::kEstimate, 2, 0}};
  const DistinctValues l = distinct_values(late, Message::Kind::kEstimate);
  EXPECT_EQ(l.count, 2u);
  EXPECT_EQ(l.min, 1u);
}

TEST(Message, DistinctValuesPastOneWord) {
  // n >= 65 senders: every count from one value to all-distinct, sorted
  // and reversed.
  for (const std::size_t n : {65u, 100u, 130u}) {
    for (const std::size_t distinct : {std::size_t{1}, std::size_t{2}, n}) {
      std::vector<Message> recv;
      for (std::size_t i = 0; i < n; ++i) {
        recv.push_back({Message::Kind::kEstimate, 10 + i % distinct, 0});
      }
      std::sort(recv.begin(), recv.end());
      DistinctValues v = distinct_values(recv, Message::Kind::kEstimate);
      EXPECT_EQ(v.count, distinct) << n;
      EXPECT_EQ(v.min, 10u) << n;
      std::reverse(recv.begin(), recv.end());
      v = distinct_values(recv, Message::Kind::kEstimate);
      EXPECT_EQ(v.count, distinct) << n;
      EXPECT_EQ(v.min, 10u) << n;
    }
  }
}

TEST(Message, CountKind) {
  std::vector<Message> recv = {{Message::Kind::kVeto, 0, 0},
                               {Message::Kind::kVeto, 0, 0},
                               {Message::Kind::kVote, 0, 0}};
  EXPECT_EQ(count_kind(recv, Message::Kind::kVeto), 2u);
  EXPECT_EQ(count_kind(recv, Message::Kind::kVote), 1u);
  EXPECT_EQ(count_kind(recv, Message::Kind::kEstimate), 0u);
}

TEST(Message, EmptyMultiset) {
  std::vector<Message> recv;
  const DistinctValues none = distinct_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.min, kNoValue);
  EXPECT_EQ(count_kind(recv, Message::Kind::kVeto), 0u);
}

TEST(Message, OrderingIsStructural) {
  const Message a{Message::Kind::kEstimate, 1, 0};
  const Message b{Message::Kind::kEstimate, 2, 0};
  const Message c{Message::Kind::kVeto, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // kind is the most significant field
  EXPECT_EQ(a, (Message{Message::Kind::kEstimate, 1, 0}));
}

TEST(Message, ToStringCoversKinds) {
  EXPECT_EQ(to_string(Message{Message::Kind::kEstimate, 4, 0}), "est(4)");
  EXPECT_EQ(to_string(Message{Message::Kind::kVeto, 0, 0}), "veto");
  EXPECT_EQ(to_string(Message{Message::Kind::kVote, 0, 0}), "vote");
  EXPECT_EQ(to_string(Message{Message::Kind::kLeaderValue, 8, 0}),
            "leader(8)");
}

}  // namespace
}  // namespace ccd
