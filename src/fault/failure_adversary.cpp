#include "fault/failure_adversary.hpp"

namespace ccd {

ScheduledCrash::ScheduledCrash(std::vector<CrashEvent> events)
    : events_(std::move(events)) {
  for (const CrashEvent& e : events_) {
    if (e.round > last_round_) last_round_ = e.round;
  }
}

void ScheduledCrash::mark(Round round, CrashPoint point, BitView alive,
                          std::span<std::uint64_t> crash) const {
  for (const CrashEvent& e : events_) {
    if (e.round == round && e.point == point && e.process < alive.size() &&
        alive.test(e.process)) {
      set_bit(crash, e.process);
    }
  }
}

void ScheduledCrash::crash_before_send(Round round, BitView alive,
                                       std::span<std::uint64_t> crash) {
  mark(round, CrashPoint::kBeforeSend, alive, crash);
}

void ScheduledCrash::crash_after_send(Round round, BitView alive,
                                      std::span<std::uint64_t> crash) {
  mark(round, CrashPoint::kAfterSend, alive, crash);
}

RandomCrash::RandomCrash(Options opts) : opts_(opts), rng_(opts.seed) {}

void RandomCrash::crash_before_send(Round round, BitView alive,
                                    std::span<std::uint64_t> crash) {
  if (round > opts_.stop_after) return;
  // Dead processes draw nothing.
  std::uint32_t alive_count = alive.count();
  alive.for_each([&](std::size_t i) {
    if (alive_count <= 1 || crashes_ >= opts_.max_crashes) return;
    if (rng_.chance(opts_.p)) {
      set_bit(crash, i);
      ++crashes_;
      --alive_count;
    }
  });
}

}  // namespace ccd
