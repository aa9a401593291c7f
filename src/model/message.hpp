// The fixed message alphabet M (Section 3.1).
//
// The algorithms in the paper only ever broadcast a handful of message
// shapes: a value estimate, a one-bit "veto" mark, a one-bit "vote" mark,
// and (for the non-anonymous Section 7.3 protocol) a leader announcement
// carrying a value.  We encode them in one POD struct so receive sets are
// cheap flat vectors (a receive set is a *multiset* over M; Definition 11,
// constraint 4).
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "model/types.hpp"

namespace ccd {

struct Message {
  enum class Kind : std::uint8_t {
    kEstimate = 0,     ///< Algorithm 1/2 prepare|proposal broadcast of estimate
    kVeto = 1,         ///< negative acknowledgement mark
    kVote = 2,         ///< Algorithm 3 BST vote mark
    kLeaderValue = 3,  ///< Section 7.3 phase-2 leader value announcement
    kPayload = 4,      ///< generic application payload (examples)
  };

  Kind kind = Kind::kPayload;
  Value value = 0;          ///< meaningful for kEstimate/kLeaderValue/kPayload
  std::uint64_t tag = 0;    ///< algorithm-specific discriminator (e.g. epoch)

  friend auto operator<=>(const Message&, const Message&) = default;
};

/// SET(M) of the paper's preliminaries, as the algorithms read it: how
/// many distinct values the messages of one kind in a receive multiset
/// carry, and the least of them (the min{} the algorithms adopt).
struct DistinctValues {
  std::size_t count = 0;
  Value min = kNoValue;  ///< kNoValue when count is 0
};

/// |SET| and min over the messages of `kind` in `received`, without
/// allocating.  Exact for any order; on a sorted multiset (the engine
/// delivers every N_r[i] sorted) it is one pass, otherwise a quadratic
/// recount.
DistinctValues distinct_values(std::span<const Message> received,
                               Message::Kind kind);

/// Count messages of a given kind in a receive multiset.
std::size_t count_kind(std::span<const Message> received, Message::Kind kind);

std::string to_string(const Message& m);

}  // namespace ccd
