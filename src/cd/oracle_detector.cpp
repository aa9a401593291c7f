#include "cd/oracle_detector.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace ccd {

OracleDetector::OracleDetector(DetectorSpec spec,
                               std::unique_ptr<AdvicePolicy> policy)
    : spec_(spec), policy_(std::move(policy)) {
  assert(policy_ != nullptr);
}

CdAdvice OracleDetector::resolve(Round round, ProcessId i, std::uint32_t c,
                                 std::uint32_t t) {
  const bool pm_forced = spec_.collision_forced(c, t);
  const bool null_forced = spec_.null_forced(round, c, t);
  // The two forced sets are disjoint: completeness only forces when t < c
  // (or NoCD, which has no accuracy), accuracy only when t == c.
  assert(!(pm_forced && null_forced));
  CdAdvice advice;
  if (pm_forced) {
    advice = CdAdvice::kCollision;
  } else if (null_forced) {
    advice = CdAdvice::kNull;
  } else {
    advice = policy_->choose(round, i, c, t);
  }
  assert(spec_.advice_legal(round, c, t, advice));
  return advice;
}

void OracleDetector::advise(Round round, std::uint32_t c,
                            std::span<const std::uint32_t> t,
                            std::span<std::uint64_t> collision) {
  // One envelope resolution for both scopes: the global oracle is the
  // per-process resolution applied with the same c everywhere.  Each word
  // is built in a register and stored once.
  for (std::size_t w = 0; w < collision.size(); ++w) {
    std::uint64_t out = 0;
    const std::size_t end = std::min(t.size(), 64 * (w + 1));
    for (std::size_t i = 64 * w; i < end; ++i) {
      if (resolve(round, static_cast<ProcessId>(i), c, t[i]) ==
          CdAdvice::kCollision) {
        out |= std::uint64_t{1} << (i % 64);
      }
    }
    collision[w] = out;
  }
}

void OracleDetector::advise_local(Round round, BitView alive,
                                  std::span<const std::uint32_t> c,
                                  std::span<const std::uint32_t> t,
                                  std::span<std::uint64_t> collision) {
  for (std::size_t w = 0; w < collision.size(); ++w) {
    std::uint64_t out = 0;
    for_each_bit(alive.words()[w], 64 * w, [&](std::size_t i) {
      if (resolve(round, static_cast<ProcessId>(i), c[i], t[i]) ==
          CdAdvice::kCollision) {
        out |= std::uint64_t{1} << (i % 64);
      }
    });
    collision[w] = out;
  }
}

void OracleDetector::advise_capture(Round round, const CaptureRows& rows,
                                    std::span<std::uint64_t> collision) {
  const std::size_t words = collision.size();
  const std::uint64_t* const* h = rows.heard.data();
  // Accuracy constrains exactly the t == c processes, from its round on
  // and never under NoCD; whether it does in this round is null_forced at
  // t == c == 0.
  const bool accurate = spec_.null_forced(round, 0, 0);
  // Process i's exact (c, t): its own broadcast plus its broadcasting
  // neighbours, its own message plus a captured one.
  auto counts = [&](std::size_t i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const std::uint32_t own = (rows.sent[i / 64] & bit) != 0;
    return std::pair<std::uint32_t, std::uint32_t>{
        own + and_count(rows.sent, rows.adj + i * words, words),
        own + ((rows.got[i / 64] & bit) != 0)};
  };
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t live = rows.alive[w];
    const std::uint64_t s = rows.sent[w];
    const std::uint64_t g = rows.got[w];
    // t == c: no broadcasting neighbour, or exactly one and it was
    // captured.  t <= c always, so t < c is its complement.
    const std::uint64_t eq = ~h[0][w] | (g & ~h[1][w]);
    std::uint64_t forced = 0;  // "+-" forced
    if (spec_.always_collision) {
      forced = ~std::uint64_t{0};
    } else {
      switch (spec_.completeness) {
        case Completeness::kComplete:  // t < c
          forced = ~eq;
          break;
        case Completeness::kMajority:  // c > 0 and 2t <= c
          forced = (~g & h[0][w]) | (g & ~s & h[1][w]) | (g & s & h[2][w]);
          break;
        case Completeness::kHalf:  // c > 0 and 2t < c
          forced = (~g & ~s & h[0][w]) | (~g & s & h[1][w]) |
                   (g & ~s & h[2][w]) | (g & s & h[3][w]);
          break;
        case Completeness::kZero:  // c > 0 and t == 0
          forced = ~s & ~g & h[0][w];
          break;
        case Completeness::kNone:
          break;
      }
    }
    forced &= live;
    const std::uint64_t null_forced = accurate ? eq & live : 0;
    assert((forced & null_forced) == 0);
    std::uint64_t out = forced;
    for_each_bit(live & ~forced & ~null_forced, w * 64, [&](std::size_t i) {
      const auto [c, t] = counts(i);
      if (policy_->choose(round, static_cast<ProcessId>(i), c, t) ==
          CdAdvice::kCollision) {
        out |= std::uint64_t{1} << (i % 64);
      }
    });
    collision[w] = out;
  }
#ifndef NDEBUG
  // The rows are the envelope: every live process's report is legal for
  // its exact (c, t).
  BitView(std::span<const std::uint64_t>(rows.alive, words), rows.n)
      .for_each([&](std::size_t i) {
        const auto [c, t] = counts(i);
        assert(spec_.advice_legal(round, c, t,
                                  (collision[i / 64] >> (i % 64)) & 1u
                                      ? CdAdvice::kCollision
                                      : CdAdvice::kNull));
      });
#endif
}

bool cd_trace_legal(const DetectorSpec& spec, const TransmissionTrace& tt,
                    const CdTrace& cd) {
  const std::size_t rounds =
      tt.num_rounds() < cd.num_rounds() ? tt.num_rounds() : cd.num_rounds();
  for (Round r = 1; r <= rounds; ++r) {
    const TransmissionRound& tr = tt.at(r);
    const std::vector<CdAdvice>& advice = cd.at(r);
    if (advice.size() != tr.receive_count.size()) return false;
    for (std::size_t i = 0; i < advice.size(); ++i) {
      if (!spec.advice_legal(r, tr.broadcaster_count, tr.receive_count[i],
                             advice[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace ccd
