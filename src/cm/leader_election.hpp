// Leader election service (Property 3): after an unknown round r_lead the
// SAME single process is advised active in every round.  Every leader
// election service is also a wake-up service.  The paper uses LS (in its
// maximal form, Definition 14) when proving lower bounds and WS when
// proving the matching upper bounds, to make both as strong as possible.
//
// The formal property pins one process forever; if that process crashes the
// formal service may keep advising it (killing liveness).  Practical
// services re-elect, so we provide `adapt_on_crash` (default true) and keep
// the strict behaviour available for adversarial tests.
#pragma once

#include "cm/contention_manager.hpp"
#include "util/rng.hpp"

namespace ccd {

class LeaderElectionService final : public ContentionManager {
 public:
  struct Options {
    Round r_lead = 1;
    /// Pre-stabilization: everyone active (maximal contention) if true,
    /// everyone passive otherwise.
    bool pre_all_active = true;
    /// Re-elect (lowest alive index) if the stabilized leader crashes.
    bool adapt_on_crash = true;
    /// Fixed leader index; kNoLeader selects the lowest alive index at
    /// stabilization time.
    static constexpr std::uint32_t kNoLeader = ~0u;
    std::uint32_t leader = kNoLeader;
  };

  explicit LeaderElectionService(Options opts);

  void advise(Round round, BitView participating,
              std::vector<CmAdvice>& out) override;
  Round stabilization_round() const override { return opts_.r_lead; }

  /// The currently pinned leader (valid once stabilized).
  std::uint32_t current_leader() const { return leader_; }

 private:
  Options opts_;
  std::uint32_t leader_ = Options::kNoLeader;
};

}  // namespace ccd
