#include "cd/oracle_detector.hpp"

#include <gtest/gtest.h>

#include "util/bitwords.hpp"

namespace ccd {
namespace {

std::vector<CdAdvice> advise_once(OracleDetector& det, Round r,
                                  std::uint32_t c,
                                  std::vector<std::uint32_t> t) {
  std::vector<CdAdvice> out;
  det.advise(r, c, t, out);
  return out;
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
  const DetectorSpec specs[] = {
      DetectorSpec::AC(),      DetectorSpec::MajAC(),
      DetectorSpec::HalfAC(),  DetectorSpec::ZeroAC(),
      DetectorSpec::OAC(4),    DetectorSpec::MajOAC(4),
      DetectorSpec::HalfOAC(4), DetectorSpec::ZeroOAC(4),
      DetectorSpec::NoCD(),    DetectorSpec::NoAcc()};
  for (const DetectorSpec& spec : specs) {
    auto make_policy = [&]() -> std::unique_ptr<AdvicePolicy> {
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
    };
    OracleDetector det(spec, make_policy());
    for (Round r = 1; r <= 8; ++r) {
      for (std::uint32_t c = 0; c <= 6; ++c) {
        std::vector<std::uint32_t> t;
        for (std::uint32_t ti = 0; ti <= c; ++ti) t.push_back(ti);
        std::vector<CdAdvice> advice;
        det.advise(r, c, t, advice);
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
  // in ascending order, and no dead entry is written.
  std::vector<ProcessId> asked;
  OracleDetector det(DetectorSpec::NoAcc(),
                     std::make_unique<RecordingPolicy>(&asked));
  BitSet alive(65);
  for (std::size_t i : {0u, 3u, 63u, 64u}) alive.set(i);
  const std::vector<std::uint32_t> c(65, 1);
  const std::vector<std::uint32_t> t(65, 1);
  std::vector<CdAdvice> out(65, CdAdvice::kCollision);
  det.advise_local(1, alive, c, t, out);
  EXPECT_EQ(asked, (std::vector<ProcessId>{0, 3, 63, 64}));
  for (std::size_t i = 0; i < 65; ++i) {
    EXPECT_EQ(out[i], alive.test(i) ? CdAdvice::kNull : CdAdvice::kCollision)
        << "process " << i;
  }
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
      std::vector<CdAdvice> want;
      global.advise(r, c, t, want);
      std::vector<CdAdvice> got(n, CdAdvice::kNull);
      local.advise_local(r, everyone, std::vector<std::uint32_t>(n, c), t,
                         got);
      EXPECT_EQ(got, want) << "n " << n << " round " << r;
    }
  }
}

}  // namespace
}  // namespace ccd
