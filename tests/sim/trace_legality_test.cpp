// Property sweep: every execution the simulator produces satisfies the
// formal model's constraints (Definition 11), and every recorded CD trace
// is legal for the configured detector class -- across all adversary
// combinations.  This is the "the substrate is the model" guarantee that
// makes the bench results meaningful.
#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/backoff_cm.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "net/capture_effect.hpp"
#include "net/ecf_adversary.hpp"
#include "net/partition_adversary.hpp"
#include "net/probabilistic_loss.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {
namespace {

struct LegalityParams {
  int loss_kind;
  int spec_kind;
  std::uint64_t seed;
};

std::unique_ptr<LossAdversary> make_loss(int kind, std::uint64_t seed) {
  switch (kind) {
    case 0: {
      EcfAdversary::Options o;
      o.r_cf = 10;
      o.seed = seed;
      return std::make_unique<EcfAdversary>(o);
    }
    case 1:
      return std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{
          UnrestrictedLoss::Mode::kRandom, 0.5, seed});
    case 2: {
      CaptureEffectLoss::Options o;
      o.seed = seed;
      return std::make_unique<CaptureEffectLoss>(o);
    }
    case 3:
      return std::make_unique<PartitionAdversary>(
          PartitionAdversary::Options{3, 15});
    default: {
      ProbabilisticLoss::Options o;
      o.seed = seed;
      return std::make_unique<ProbabilisticLoss>(o);
    }
  }
}

DetectorSpec make_spec(int kind) {
  switch (kind) {
    case 0:
      return DetectorSpec::AC();
    case 1:
      return DetectorSpec::MajOAC(12);
    case 2:
      return DetectorSpec::HalfAC();
    case 3:
      return DetectorSpec::ZeroOAC(12);
    default:
      return DetectorSpec::NoCD();
  }
}

class LegalitySweep : public ::testing::TestWithParam<LegalityParams> {};

TEST_P(LegalitySweep, ExecutionSatisfiesModelConstraints) {
  const LegalityParams p = GetParam();
  const std::size_t n = 6;
  Alg2Algorithm alg(32);
  const DetectorSpec spec = make_spec(p.spec_kind);
  WakeupService::Options ws;
  ws.r_wake = 10;
  ws.pre = WakeupService::PreStabilization::kRandomSubset;
  ws.seed = p.seed;
  RandomCrash::Options crash;
  crash.p = 0.02;
  crash.stop_after = 20;
  crash.seed = p.seed * 7;
  World world = make_world(
      alg, random_initial_values(n, 32, p.seed),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(
          spec, std::make_unique<RandomLegalPolicy>(p.seed * 11)),
      make_loss(p.loss_kind, p.seed * 13),
      std::make_unique<RandomCrash>(crash));

  LaneEngine engine(std::move(world),
                    {.record_rounds = true, .record_views = true});
  const Round rounds = 40;
  for (Round r = 0; r < rounds; ++r) engine.step();
  const ExecutionLog& log = engine.log();

  // Constraint 4 (integrity / no duplication): receive counts bounded by
  // broadcaster counts.
  for (Round r = 1; r <= rounds; ++r) {
    const auto& tr = log.transmission().at(r);
    EXPECT_LE(tr.broadcaster_count, n);
    for (std::uint32_t t : tr.receive_count) {
      EXPECT_LE(t, tr.broadcaster_count);
    }
  }

  // Constraint 5 (self-delivery): every sender's view contains its own
  // message.
  for (ProcessId i = 0; i < n; ++i) {
    const ProcessView& view = log.view(i);
    for (const RoundView& rv : view.rounds) {
      if (rv.sent.has_value() && !rv.crashed) {
        bool found = false;
        for (const Message& m : rv.received) {
          if (m == *rv.sent) found = true;
        }
        EXPECT_TRUE(found);
      }
    }
  }

  // Constraint 6: the CD trace is inside the configured class envelope.
  EXPECT_TRUE(cd_trace_legal(spec, log.transmission(), log.cd_trace()))
      << spec.class_name() << " loss=" << p.loss_kind
      << " seed=" << p.seed;

  // Crash absorption: once a process crashes it never broadcasts again.
  for (const CrashRecord& c : log.crashes()) {
    const ProcessView& view = log.view(c.process);
    for (std::size_t r = c.round; r < view.rounds.size(); ++r) {
      EXPECT_FALSE(view.rounds[r].sent.has_value());
    }
  }
}

std::vector<LegalityParams> legality_matrix() {
  std::vector<LegalityParams> out;
  for (int loss = 0; loss < 5; ++loss) {
    for (int spec = 0; spec < 5; ++spec) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({loss, spec, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, LegalitySweep,
                         ::testing::ValuesIn(legality_matrix()));

TEST(TraceLegality, NoiseLemmaHoldsOnRecordedTraces) {
  // Lemma 2 / Corollary 1 as a trace property: with a zero-complete
  // detector, whenever someone broadcast, every process either received
  // something or was told +-.
  Alg2Algorithm alg(32);
  WakeupService::Options ws;
  ws.r_wake = 5;
  EcfAdversary::Options ecf;
  ecf.r_cf = 5;
  ecf.seed = 3;
  World world = make_world(
      alg, random_initial_values(5, 32, 3),
      std::make_unique<WakeupService>(ws),
      std::make_unique<OracleDetector>(DetectorSpec::ZeroOAC(5),
                                       make_prefer_null_policy()),
      std::make_unique<EcfAdversary>(ecf), std::make_unique<NoFailures>());
  LaneEngine engine(std::move(world), {.record_rounds = true});
  for (Round r = 0; r < 30; ++r) engine.step();
  const ExecutionLog& log = engine.log();
  for (Round r = 1; r <= 30; ++r) {
    const auto& tr = log.transmission().at(r);
    if (tr.broadcaster_count == 0) continue;
    const auto& advice = log.cd_trace().at(r);
    for (std::size_t i = 0; i < advice.size(); ++i) {
      EXPECT_TRUE(tr.receive_count[i] > 0 ||
                  advice[i] == CdAdvice::kCollision)
          << "round " << r << " process " << i;
    }
  }
}

}  // namespace
}  // namespace ccd
