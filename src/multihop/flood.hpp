// Collision-detector-assisted flooding over a multihop network: the
// broadcast problem of Section 1.1's literature discussion, implemented on
// the extended model so the detector taxonomy can be exercised beyond a
// single hop.
//
// Each process that holds the message broadcasts it probabilistically
// (decay-style flooding, cf. Bar-Yehuda et al. [7]).  Two policies:
//   * kFixed    - broadcast with a constant probability while fresh;
//   * kCdBackoff- additionally HALVE the broadcast probability after any
//                 round in which the local detector reported a collision
//                 (local congestion), and recover slowly on quiet rounds.
// A node without the message only listens: it is dormant (Process::
// dormant()) until the payload arrives, so the engine skips its silent
// rounds.
//
// Claim E14 (exp/claims.hpp) compares the two policies: under dense
// topologies the collision feedback cuts completion time, reproducing the
// paper's thesis -- receiver-side collision detection is a cheap, powerful
// coordination primitive -- in the multihop setting it targets next.
#pragma once

#include "model/process.hpp"
#include "util/rng.hpp"

namespace ccd {

enum class FloodPolicy : std::uint8_t { kFixed, kCdBackoff };

class FloodProcess final : public Process {
 public:
  struct Options {
    bool is_source = false;
    FloodPolicy policy = FloodPolicy::kFixed;
    double p_broadcast = 0.4;  ///< initial/fixed broadcast probability
    double p_min = 0.02;       ///< floor for the backoff policy
    Round fresh_rounds = 40;   ///< how long a holder keeps flooding
    std::uint64_t seed = 1;
  };

  explicit FloodProcess(Options options);

  std::optional<Message> on_send(Round round, CmAdvice cm) override;
  void on_receive(Round round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice cm) override;

  bool has_message() const { return has_message_; }
  Round received_at() const { return received_at_; }

 private:
  Options options_;
  Rng rng_;
  bool has_message_;
  Round received_at_;
  Round holding_since_ = 0;
  double p_current_;
};

}  // namespace ccd
