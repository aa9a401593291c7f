// Crash-failure adversaries (Section 3.3).
//
// In the formal model any process may non-deterministically enter its
// absorbing fail state in any round.  Constraint 3 of Definition 11 derives
// round-r messages from the state AFTER round r-1, so a process crashing in
// round r still broadcasts in r (it fails to take its round-r transition).
// We expose both crash points:
//   kBeforeSend - equivalent to crashing in round r-1 after its transition:
//                 the process is silent from round r on;
//   kAfterSend  - the literal Definition 11 semantics: the round-r message
//                 goes out, the transition is skipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "util/bitwords.hpp"
#include "util/rng.hpp"

namespace ccd {

enum class CrashPoint : std::uint8_t { kBeforeSend, kAfterSend };

struct CrashEvent {
  Round round = 0;
  ProcessId process = 0;
  CrashPoint point = CrashPoint::kBeforeSend;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

class FailureAdversary {
 public:
  virtual ~FailureAdversary() = default;

  /// Mark processes to crash before round `round`'s sends by setting their
  /// bits in `crash` (set_bit).  `alive` is the set of live processes
  /// (alive.size() is n); `crash` arrives zeroed, word_count(n) words, and
  /// only bits below n may be set.  Marks of dead processes are ignored.
  virtual void crash_before_send(Round /*round*/, BitView /*alive*/,
                                 std::span<std::uint64_t> /*crash*/) {}

  /// Mark processes to crash after round `round`'s sends (their message is
  /// delivered, their transition is skipped); same contract.
  virtual void crash_after_send(Round /*round*/, BitView /*alive*/,
                                std::span<std::uint64_t> /*crash*/) {}

  /// Upper bound on the last round in which this adversary crashes anyone;
  /// 0 when failure-free.  Used for "after failures cease" accounting
  /// (Theorem 3's termination bound) and as the engines' crash window:
  /// neither hook is called in any later round, so past this bound the
  /// hooks must mark nobody and draw no randomness.
  virtual Round last_crash_round() const { return 0; }

  virtual const char* name() const = 0;
};

class NoFailures final : public FailureAdversary {
 public:
  const char* name() const override { return "NoFailures"; }
};

/// Deterministic crash schedule; the workhorse for worst-case scenarios
/// such as Theorem 3's "lead everyone to a leaf, then die".
class ScheduledCrash final : public FailureAdversary {
 public:
  explicit ScheduledCrash(std::vector<CrashEvent> events);

  void crash_before_send(Round round, BitView alive,
                         std::span<std::uint64_t> crash) override;
  void crash_after_send(Round round, BitView alive,
                        std::span<std::uint64_t> crash) override;
  Round last_crash_round() const override { return last_round_; }
  const char* name() const override { return "ScheduledCrash"; }

 private:
  void mark(Round round, CrashPoint point, BitView alive,
            std::span<std::uint64_t> crash) const;

  std::vector<CrashEvent> events_;
  Round last_round_ = 0;
};

/// Crashes each alive process independently with probability p per round
/// through round `stop_after`, never crashing the final survivor and never
/// exceeding `max_crashes` total.
class RandomCrash final : public FailureAdversary {
 public:
  struct Options {
    double p = 0.02;
    Round stop_after = 50;
    std::uint32_t max_crashes = ~0u;
    std::uint64_t seed = 17;
  };

  explicit RandomCrash(Options opts);

  void crash_before_send(Round round, BitView alive,
                         std::span<std::uint64_t> crash) override;
  Round last_crash_round() const override { return opts_.stop_after; }
  const char* name() const override { return "RandomCrash"; }

 private:
  Options opts_;
  Rng rng_;
  std::uint32_t crashes_ = 0;
};

}  // namespace ccd
