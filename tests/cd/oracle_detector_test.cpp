#include "cd/oracle_detector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/bitwords.hpp"

namespace ccd {
namespace {

/// A collision row's n reports as advice.
std::vector<CdAdvice> to_advice(const BitSet& collision) {
  std::vector<CdAdvice> out(collision.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = collision.test(i) ? CdAdvice::kCollision : CdAdvice::kNull;
  }
  return out;
}

std::vector<CdAdvice> advise_once(OracleDetector& det, Round r,
                                  std::uint32_t c,
                                  std::vector<std::uint32_t> t) {
  BitSet collision(t.size());
  det.advise(r, c, t, collision.words());
  return to_advice(collision);
}

/// The six policies by index; each drawing policy has a fixed seed.
std::unique_ptr<AdvicePolicy> make_test_policy(int which) {
  switch (which) {
    case 0:
      return make_truthful_policy();
    case 1:
      return make_prefer_null_policy();
    case 2:
      return make_prefer_collision_policy();
    case 3:
      return std::make_unique<SpuriousPolicy>(0.5, 6, 31);
    case 4:
      return std::make_unique<FlakyMajorityPolicy>(0.6, 37);
    default:
      return std::make_unique<RandomLegalPolicy>(41);
  }
}

/// The ten classes of Figure 1 and Section 5.3, eventual accuracy from
/// round r_acc.
std::vector<DetectorSpec> all_classes(Round r_acc) {
  return {DetectorSpec::AC(),          DetectorSpec::MajAC(),
          DetectorSpec::HalfAC(),      DetectorSpec::ZeroAC(),
          DetectorSpec::OAC(r_acc),    DetectorSpec::MajOAC(r_acc),
          DetectorSpec::HalfOAC(r_acc), DetectorSpec::ZeroOAC(r_acc),
          DetectorSpec::NoCD(),        DetectorSpec::NoAcc()};
}

TEST(OracleDetector, TruthfulReportsExactlyLoss) {
  OracleDetector det(DetectorSpec::AC(), make_truthful_policy());
  const auto advice = advise_once(det, 1, 3, {3, 2, 0});
  EXPECT_EQ(advice[0], CdAdvice::kNull);
  EXPECT_EQ(advice[1], CdAdvice::kCollision);
  EXPECT_EQ(advice[2], CdAdvice::kCollision);
}

TEST(OracleDetector, PreferNullHidesEverythingNotForced) {
  OracleDetector det(DetectorSpec::HalfAC(), make_prefer_null_policy());
  // c=2: one of two received (exactly half) -> legal null; zero -> forced.
  const auto advice = advise_once(det, 1, 2, {1, 1, 0});
  EXPECT_EQ(advice[0], CdAdvice::kNull);
  EXPECT_EQ(advice[1], CdAdvice::kNull);
  EXPECT_EQ(advice[2], CdAdvice::kCollision);
}

TEST(OracleDetector, PreferNullCannotHideFromMajorityComplete) {
  OracleDetector det(DetectorSpec::MajAC(), make_prefer_null_policy());
  // The same exactly-half situation IS forced under majority completeness.
  const auto advice = advise_once(det, 1, 2, {1, 1});
  EXPECT_EQ(advice[0], CdAdvice::kCollision);
  EXPECT_EQ(advice[1], CdAdvice::kCollision);
}

TEST(OracleDetector, PreferCollisionSpamsUntilAccuracyForbids) {
  OracleDetector det(DetectorSpec::OAC(5), make_prefer_collision_policy());
  // Before r_acc a clean receiver may still be told +-.
  EXPECT_EQ(advise_once(det, 4, 1, {1})[0], CdAdvice::kCollision);
  // From r_acc on accuracy forces null for clean receivers.
  EXPECT_EQ(advise_once(det, 5, 1, {1})[0], CdAdvice::kNull);
  // Lossy receivers may always be told +-.
  EXPECT_EQ(advise_once(det, 9, 2, {1})[0], CdAdvice::kCollision);
}

TEST(OracleDetector, NoCdAlwaysCollision) {
  OracleDetector det(DetectorSpec::NoCD(), make_prefer_null_policy());
  EXPECT_EQ(advise_once(det, 1, 0, {0})[0], CdAdvice::kCollision);
  EXPECT_EQ(advise_once(det, 2, 3, {3})[0], CdAdvice::kCollision);
}

TEST(OracleDetector, SpuriousPolicyTruthfulAfterWindow) {
  OracleDetector det(DetectorSpec::ZeroOAC(20),
                     std::make_unique<SpuriousPolicy>(1.0, 20, 99));
  // p = 1.0: every legal opportunity before round 20 is a false positive.
  EXPECT_EQ(advise_once(det, 3, 0, {0})[0], CdAdvice::kCollision);
  EXPECT_EQ(advise_once(det, 19, 2, {2})[0], CdAdvice::kCollision);
  // After the window: truthful (and accuracy-forced anyway).
  EXPECT_EQ(advise_once(det, 20, 2, {2})[0], CdAdvice::kNull);
  EXPECT_EQ(advise_once(det, 25, 0, {0})[0], CdAdvice::kNull);
}

TEST(OracleDetector, FlakyMajorityNeverMissesTotalLoss) {
  // Zero completeness is enforced by the envelope regardless of the policy:
  // the Section 1.3 "100% of rounds zero complete" measurement.
  OracleDetector det(DetectorSpec::ZeroOAC(1000),
                     std::make_unique<FlakyMajorityPolicy>(0.0, 7));
  for (Round r = 1; r <= 50; ++r) {
    EXPECT_EQ(advise_once(det, r, 4, {0})[0], CdAdvice::kCollision);
  }
}

TEST(OracleDetector, FlakyMajorityHitsConfiguredRate) {
  OracleDetector det(DetectorSpec::ZeroOAC(100000),
                     std::make_unique<FlakyMajorityPolicy>(0.9, 7));
  int reported = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    // 1 of 4 received: majority lost but not everything, so the report is
    // up to the policy.
    if (advise_once(det, static_cast<Round>(i + 1), 4, {1})[0] ==
        CdAdvice::kCollision) {
      ++reported;
    }
  }
  EXPECT_NEAR(reported / static_cast<double>(trials), 0.9, 0.03);
}

TEST(CdTraceLegal, AcceptsTruthfulTrace) {
  TransmissionTrace tt;
  CdTrace cd;
  tt.push({2, {2, 1, 0}});
  cd.push({CdAdvice::kNull, CdAdvice::kCollision, CdAdvice::kCollision});
  EXPECT_TRUE(cd_trace_legal(DetectorSpec::AC(), tt, cd));
}

TEST(CdTraceLegal, RejectsCompletenessViolation) {
  TransmissionTrace tt;
  CdTrace cd;
  tt.push({2, {0, 2}});
  cd.push({CdAdvice::kNull, CdAdvice::kNull});  // process 0 lost all: 0-AC
                                                // requires a report
  EXPECT_FALSE(cd_trace_legal(DetectorSpec::ZeroAC(), tt, cd));
}

TEST(CdTraceLegal, RejectsAccuracyViolation) {
  TransmissionTrace tt;
  CdTrace cd;
  tt.push({1, {1, 1}});
  cd.push({CdAdvice::kCollision, CdAdvice::kNull});  // false positive
  EXPECT_FALSE(cd_trace_legal(DetectorSpec::ZeroAC(), tt, cd));
  // But legal for an eventually-accurate detector before r_acc...
  EXPECT_TRUE(cd_trace_legal(DetectorSpec::ZeroOAC(5), tt, cd));
  // ...and illegal once accuracy must hold. (Round 1 >= r_acc = 1.)
  EXPECT_FALSE(cd_trace_legal(DetectorSpec::ZeroOAC(1), tt, cd));
}

TEST(CdTraceLegal, RejectsSizeMismatch) {
  TransmissionTrace tt;
  CdTrace cd;
  tt.push({1, {1, 1}});
  cd.push({CdAdvice::kNull});
  EXPECT_FALSE(cd_trace_legal(DetectorSpec::ZeroOAC(5), tt, cd));
}

// Property: every policy, run against every spec, emits only legal advice
// (the OracleDetector envelope guarantee), across a sweep of (c, t).
class PolicyEnvelope : public ::testing::TestWithParam<int> {};

TEST_P(PolicyEnvelope, AllAdviceLegal) {
  const int which = GetParam();
  for (const DetectorSpec& spec : all_classes(4)) {
    OracleDetector det(spec, make_test_policy(which));
    for (Round r = 1; r <= 8; ++r) {
      for (std::uint32_t c = 0; c <= 6; ++c) {
        std::vector<std::uint32_t> t;
        for (std::uint32_t ti = 0; ti <= c; ++ti) t.push_back(ti);
        const std::vector<CdAdvice> advice = advise_once(det, r, c, t);
        for (std::size_t i = 0; i < t.size(); ++i) {
          ASSERT_TRUE(spec.advice_legal(r, c, t[i], advice[i]))
              << spec.class_name() << " policy=" << which << " r=" << r
              << " c=" << c << " t=" << t[i];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyEnvelope, ::testing::Range(0, 6));

/// Records which processes it was asked about; always answers null.
class RecordingPolicy final : public AdvicePolicy {
 public:
  explicit RecordingPolicy(std::vector<ProcessId>* asked) : asked_(asked) {}
  CdAdvice choose(Round, ProcessId i, std::uint32_t, std::uint32_t) override {
    asked_->push_back(i);
    return CdAdvice::kNull;
  }

 private:
  std::vector<ProcessId>* asked_;
};

TEST(OracleDetector, AdviseLocalAsksOncePerLiveProcessAscending) {
  // n = 65: the live set straddles the word boundary.  Under NoAcc with
  // t == c every choice is free, so the policy sees each live process once,
  // in ascending order, and a dead process reads null.
  std::vector<ProcessId> asked;
  OracleDetector det(DetectorSpec::NoAcc(),
                     std::make_unique<RecordingPolicy>(&asked));
  BitSet alive(65);
  for (std::size_t i : {0u, 3u, 63u, 64u}) alive.set(i);
  const std::vector<std::uint32_t> c(65, 1);
  const std::vector<std::uint32_t> t(65, 1);
  BitSet collision(65, true);
  det.advise_local(1, alive, c, t, collision.words());
  EXPECT_EQ(asked, (std::vector<ProcessId>{0, 3, 63, 64}));
  EXPECT_EQ(collision.count(), 0u);
}

TEST(OracleDetector, AdviseLocalOverEveryoneEqualsGlobalAdvise) {
  // One per-process resolution for both scopes: with every process live and
  // c_i = c, the batched local call and the global call agree draw for draw.
  for (std::size_t n : {64u, 65u, 130u}) {
    OracleDetector global(DetectorSpec::MajOAC(5),
                          std::make_unique<RandomLegalPolicy>(7));
    OracleDetector local(DetectorSpec::MajOAC(5),
                         std::make_unique<RandomLegalPolicy>(7));
    const BitSet everyone(n, true);
    for (Round r = 1; r <= 8; ++r) {
      const std::uint32_t c = r % 4;
      std::vector<std::uint32_t> t(n);
      for (std::size_t i = 0; i < n; ++i) {
        t[i] = static_cast<std::uint32_t>(i % (c + 1));
      }
      BitSet want(n);
      global.advise(r, c, t, want.words());
      BitSet got(n);
      local.advise_local(r, everyone, std::vector<std::uint32_t>(n, c), t,
                         got.words());
      EXPECT_EQ(got, want) << "n " << n << " round " << r;
    }
  }
}

/// One policy call: its arguments and the answer.
struct Choice {
  Round r;
  ProcessId i;
  std::uint32_t c;
  std::uint32_t t;
  CdAdvice advice;
  friend bool operator==(const Choice&, const Choice&) = default;
};

/// Forwards every choice to a wrapped policy and logs it.
class LoggingPolicy final : public AdvicePolicy {
 public:
  LoggingPolicy(std::unique_ptr<AdvicePolicy> inner, std::vector<Choice>* log)
      : inner_(std::move(inner)), log_(log) {}
  CdAdvice choose(Round r, ProcessId i, std::uint32_t c,
                  std::uint32_t t) override {
    const CdAdvice advice = inner_->choose(r, i, c, t);
    log_->push_back({r, i, c, t, advice});
    return advice;
  }

 private:
  std::unique_ptr<AdvicePolicy> inner_;
  std::vector<Choice>* log_;
};

/// One capture round holding every (sent, got, heard) case a capture
/// receiver can be in: sent in {0, 1}, heard in 0..6 broadcasting
/// neighbours and got in {0, 1} (got only when heard >= 1), one case per
/// process in the last 26.  Processes 0..5 are the broadcasters, crashed
/// after sending (in `sent`, not alive); case i's adjacency row names
/// broadcasters 0..heard-1.  The processes between them are live, silent
/// and out of range (c = t = 0).  `c` and `t` are every process's exact
/// counts, the per-process path's input.
struct CaptureRound {
  static constexpr std::size_t kBroadcasters = 6;
  static constexpr std::size_t kCases = 26;

  explicit CaptureRound(std::size_t n)
      : alive(n), sent(n), got(n), heard{BitSet(n), BitSet(n), BitSet(n),
                                         BitSet(n)},
        adj(n * word_count(n), 0), c(n, 0), t(n, 0) {
    const std::size_t words = word_count(n);
    const std::size_t first = n - kCases;
    for (std::size_t j = 0; j < kBroadcasters; ++j) sent.set(j);
    for (std::size_t i = kBroadcasters; i < n; ++i) alive.set(i);
    std::size_t i = first;
    for (std::uint32_t s = 0; s <= 1; ++s) {
      for (std::uint32_t h = 0; h <= kBroadcasters; ++h) {
        for (std::uint32_t g = 0; g <= (h > 0 ? 1u : 0u); ++g, ++i) {
          sent.set(i, s != 0);
          got.set(i, g != 0);
          for (std::uint32_t k = 0; k < h; ++k) {
            adj[i * words + k / 64] |= std::uint64_t{1} << (k % 64);
            if (k < heard.size()) heard[k].set(i);
          }
          c[i] = s + h;
          t[i] = s + g;
        }
      }
    }
    EXPECT_EQ(i, n);
  }

  CaptureRows rows() const {
    CaptureRows r;
    r.n = alive.size();
    r.alive = alive.view().words().data();
    r.sent = sent.view().words().data();
    r.got = got.view().words().data();
    for (std::size_t k = 0; k < heard.size(); ++k) {
      r.heard[k] = heard[k].view().words().data();
    }
    r.adj = adj.data();
    return r;
  }

  BitSet alive, sent, got;
  std::array<BitSet, 4> heard;
  std::vector<std::uint64_t> adj;
  std::vector<std::uint32_t> c, t;
};

TEST(OracleDetector, CaptureRowsMatchPerProcessResolution) {
  // Every class, before and from r_acc, under every policy: the row entry
  // point gives the advice the per-process path gives, and asks the policy
  // the same questions in the same order (so a drawing policy's stream
  // moves identically).  n = 32 holds the cases in one word; n = 65 puts
  // them across the word boundary, the last in bit 0 of word 1.
  constexpr Round kRAcc = 3;
  for (std::size_t n : {32u, 65u}) {
    const CaptureRound round(n);
    for (const DetectorSpec& spec : all_classes(kRAcc)) {
      for (int which = 0; which < 6; ++which) {
        std::vector<Choice> row_calls;
        std::vector<Choice> twin_calls;
        OracleDetector rows(spec, std::make_unique<LoggingPolicy>(
                                      make_test_policy(which), &row_calls));
        OracleDetector twin(spec, std::make_unique<LoggingPolicy>(
                                      make_test_policy(which), &twin_calls));
        for (Round r = 1; r <= kRAcc + 2; ++r) {
          BitSet got(n, true);
          rows.advise_capture(r, round.rows(), got.words());
          BitSet want(n, true);
          twin.advise_local(r, round.alive, round.c, round.t, want.words());
          const std::string where = spec.class_name() + " policy " +
                                    std::to_string(which) + " n " +
                                    std::to_string(n) + " round " +
                                    std::to_string(r);
          ASSERT_EQ(got, want) << where;
          ASSERT_EQ(row_calls, twin_calls) << where;
          for (std::size_t i = 0; i < n; ++i) {
            const CdAdvice advice =
                got.test(i) ? CdAdvice::kCollision : CdAdvice::kNull;
            ASSERT_TRUE(round.alive.test(i)
                            ? spec.advice_legal(r, round.c[i], round.t[i],
                                                advice)
                            : advice == CdAdvice::kNull)
                << where << " process " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccd
