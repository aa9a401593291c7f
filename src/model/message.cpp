#include "model/message.hpp"

#include <algorithm>

namespace ccd {

DistinctValues distinct_values(std::span<const Message> received,
                               Message::Kind kind) {
  // Sorted input: the values of one kind are nondecreasing, so every
  // change of value is a new one.
  DistinctValues out;
  bool sorted = true;
  Value last = 0;
  for (const Message& m : received) {
    if (m.kind != kind) continue;
    if (out.count == 0 || m.value != last) {
      if (out.count > 0 && m.value < last) sorted = false;
      ++out.count;
      out.min = std::min(out.min, m.value);
      last = m.value;
    }
  }
  if (sorted) return out;
  // Unsorted input: count each value at its first occurrence.
  out.count = 0;
  for (std::size_t a = 0; a < received.size(); ++a) {
    if (received[a].kind != kind) continue;
    bool first = true;
    for (std::size_t b = 0; b < a && first; ++b) {
      first = received[b].kind != kind ||
              received[b].value != received[a].value;
    }
    out.count += first;
  }
  return out;
}

std::size_t count_kind(std::span<const Message> received, Message::Kind kind) {
  std::size_t n = 0;
  for (const Message& m : received) {
    if (m.kind == kind) ++n;
  }
  return n;
}

std::string to_string(const Message& m) {
  switch (m.kind) {
    case Message::Kind::kEstimate:
      return "est(" + std::to_string(m.value) + ")";
    case Message::Kind::kVeto:
      return "veto";
    case Message::Kind::kVote:
      return "vote";
    case Message::Kind::kLeaderValue:
      return "leader(" + std::to_string(m.value) + ")";
    case Message::Kind::kPayload:
      return "payload(" + std::to_string(m.value) + ")";
  }
  return "?";
}

}  // namespace ccd
