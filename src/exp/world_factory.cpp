#include "exp/world_factory.hpp"

#include <algorithm>
#include <cmath>

#include "cd/oracle_detector.hpp"
#include "cm/backoff_cm.hpp"
#include "cm/leader_election.hpp"
#include "cm/no_cm.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/alg3_zero_ac_nocf.hpp"
#include "consensus/alg4_non_anonymous.hpp"
#include "consensus/harness.hpp"
#include "consensus/naive_no_cd.hpp"
#include "exp/lane_executor.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/probabilistic_loss.hpp"
#include "net/unrestricted_loss.hpp"
#include "sync/round_synchronizer.hpp"
#include "util/bitcodec.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

// Per-component sub-seed streams.  Distinct salts keep the streams
// independent; hash_mix makes neighbouring run seeds uncorrelated.
constexpr std::uint64_t kCmSalt = 0x636d5f73656564ULL;      // "cm_seed"
constexpr std::uint64_t kCdSalt = 0x63645f73656564ULL;      // "cd_seed"
constexpr std::uint64_t kLossSalt = 0x6c6f73735f73ULL;      // "loss_s"
constexpr std::uint64_t kFaultSalt = 0x6661756c745fULL;     // "fault_"
constexpr std::uint64_t kInitSalt = 0x696e69745f73ULL;      // "init_s"
constexpr std::uint64_t kTopoSalt = 0x746f706f5f73ULL;      // "topo_s"
constexpr std::uint64_t kMhProcSalt = 0x6d685f70726fULL;    // "mh_pro"
constexpr std::uint64_t kMhLinkSalt = 0x6d685f6c6e6bULL;    // "mh_lnk"
constexpr std::uint64_t kPhase2Salt = 0x7068617365325fULL;  // "phase2_"
constexpr std::uint64_t kSyncSalt = 0x73796e635f73ULL;      // "sync_s"

std::uint64_t sub_seed(const ScenarioSpec& spec, std::uint64_t salt) {
  return hash_mix(spec.seed ^ salt);
}

DetectorSpec detector_spec(const ScenarioSpec& spec) {
  const Round r_acc = std::max<Round>(spec.cst_target, 1);
  switch (spec.detector) {
    case DetectorKind::kAC: return DetectorSpec::AC();
    case DetectorKind::kMajAC: return DetectorSpec::MajAC();
    case DetectorKind::kHalfAC: return DetectorSpec::HalfAC();
    case DetectorKind::kZeroAC: return DetectorSpec::ZeroAC();
    case DetectorKind::kOAC: return DetectorSpec::OAC(r_acc);
    case DetectorKind::kMajOAC: return DetectorSpec::MajOAC(r_acc);
    case DetectorKind::kHalfOAC: return DetectorSpec::HalfOAC(r_acc);
    case DetectorKind::kZeroOAC: return DetectorSpec::ZeroOAC(r_acc);
    case DetectorKind::kNoCd: return DetectorSpec::NoCD();
    case DetectorKind::kNoAcc: return DetectorSpec::NoAcc();
  }
  return DetectorSpec::AC();
}

std::unique_ptr<AdvicePolicy> make_policy(const ScenarioSpec& spec) {
  const std::uint64_t seed = sub_seed(spec, kCdSalt);
  switch (spec.policy) {
    case PolicyKind::kTruthful:
      return make_truthful_policy();
    case PolicyKind::kPreferNull:
      return make_prefer_null_policy();
    case PolicyKind::kPreferCollision:
      return make_prefer_collision_policy();
    case PolicyKind::kSpurious:
      return std::make_unique<SpuriousPolicy>(
          spec.spurious_p, std::max<Round>(spec.cst_target, 1), seed);
    case PolicyKind::kFlakyMajority:
      return std::make_unique<FlakyMajorityPolicy>(spec.spurious_p, seed);
    case PolicyKind::kRandomLegal:
      return std::make_unique<RandomLegalPolicy>(seed);
  }
  return make_truthful_policy();
}

/// build(algorithm) on spec's algorithm object, which lives on the stack:
/// it only instantiates the processes.
template <typename Build>
World with_algorithm(const ScenarioSpec& spec, const Build& build) {
  switch (spec.alg) {
    case AlgKind::kAlg1:
      return build(Alg1Algorithm());
    case AlgKind::kAlg2:
      return build(Alg2Algorithm(spec.num_values));
    case AlgKind::kAlg3:
      return build(Alg3Algorithm(spec.num_values));
    case AlgKind::kAlg4:
      // An explicit id_space sweeps |I| (claim E4's Section 7.3 crossover);
      // 0 keeps the legacy roomy default.
      return build(Alg4Algorithm(
          spec.num_values,
          /*id_space_size=*/spec.id_space != 0
              ? spec.id_space
              : std::max<std::uint64_t>(64, 2 * spec.n)));
    case AlgKind::kNaive:
      return build(NaiveNoCdAlgorithm(/*patience=*/spec.cst_target + 8));
  }
  return build(Alg1Algorithm());
}

std::unique_ptr<ContentionManager> make_cm(const ScenarioSpec& spec) {
  switch (spec.cm) {
    case CmKind::kNoCm:
      return std::make_unique<NoCm>();
    case CmKind::kWakeup: {
      WakeupService::Options ws;
      ws.r_wake = std::max<Round>(spec.cst_target, 1);
      ws.seed = sub_seed(spec, kCmSalt);
      if (spec.chaos == ChaosKind::kChaotic) {
        ws.pre = WakeupService::PreStabilization::kRandomSubset;
        ws.post = WakeupService::PostStabilization::kRotateAlive;
      }
      return std::make_unique<WakeupService>(ws);
    }
    case CmKind::kLeader: {
      LeaderElectionService::Options ls;
      ls.r_lead = std::max<Round>(spec.cst_target, 1);
      return std::make_unique<LeaderElectionService>(ls);
    }
    case CmKind::kBackoff: {
      BackoffCm::Options bo;
      bo.seed = sub_seed(spec, kCmSalt);
      return std::make_unique<BackoffCm>(bo);
    }
  }
  return std::make_unique<NoCm>();
}

std::unique_ptr<LossAdversary> make_loss(const ScenarioSpec& spec) {
  const std::uint64_t seed = sub_seed(spec, kLossSalt);
  switch (spec.loss) {
    case LossKind::kNoLoss:
      return std::make_unique<NoLoss>();
    case LossKind::kEcf: {
      EcfAdversary::Options ecf;
      ecf.r_cf = std::max<Round>(spec.cst_target, 1);
      ecf.p_deliver = spec.p_deliver;
      ecf.seed = seed;
      if (spec.chaos == ChaosKind::kChaotic) {
        ecf.pre = EcfAdversary::PreMode::kCapture;
        ecf.contention = EcfAdversary::ContentionMode::kCapture;
      } else {
        ecf.pre = EcfAdversary::PreMode::kRandom;
        ecf.contention = EcfAdversary::ContentionMode::kDeliverAll;
      }
      return std::make_unique<EcfAdversary>(ecf);
    }
    case LossKind::kProbabilistic: {
      ProbabilisticLoss::Options opts;
      opts.p_deliver = spec.p_deliver;
      opts.r_cf = kNeverRound;
      opts.seed = seed;
      return std::make_unique<ProbabilisticLoss>(opts);
    }
    case LossKind::kUnrestricted: {
      UnrestrictedLoss::Options opts;
      opts.seed = seed;
      return std::make_unique<UnrestrictedLoss>(opts);
    }
  }
  return std::make_unique<NoLoss>();
}

std::vector<Value> make_initial_values(const ScenarioSpec& spec) {
  switch (spec.init) {
    case InitKind::kRandom:
      return random_initial_values(spec.n, spec.num_values,
                                   sub_seed(spec, kInitSalt));
    case InitKind::kSplit:
      return split_initial_values(spec.n, 0,
                                  spec.num_values > 1 ? spec.num_values - 1
                                                      : 0);
    case InitKind::kAllSame:
      return std::vector<Value>(spec.n,
                                spec.num_values > 1 ? spec.num_values - 1 : 0);
  }
  return std::vector<Value>(spec.n, 0);
}

}  // namespace

std::unique_ptr<OracleDetector> WorldFactory::make_detector(
    const ScenarioSpec& spec) {
  return std::make_unique<OracleDetector>(detector_spec(spec),
                                          make_policy(spec));
}

std::unique_ptr<FailureAdversary> WorldFactory::make_fault(
    const ScenarioSpec& spec) {
  switch (spec.fault) {
    case FaultKind::kNone:
      return std::make_unique<NoFailures>();
    case FaultKind::kRandomCrash: {
      RandomCrash::Options opts;
      opts.p = spec.crash_p;
      opts.stop_after = spec.cst_target;
      // Never crash everyone: keep at least one survivor so termination
      // remains observable.
      opts.max_crashes = spec.n > 0 ? spec.n - 1 : 0;
      opts.seed = sub_seed(spec, kFaultSalt);
      return std::make_unique<RandomCrash>(opts);
    }
    case FaultKind::kScheduled:
      return std::make_unique<ScheduledCrash>(resolved_crash_schedule(spec));
  }
  return std::make_unique<NoFailures>();
}

Round WorldFactory::max_rounds(const ScenarioSpec& spec) {
  if (spec.max_rounds > 0) return spec.max_rounds;
  // Every upper bound in the paper is CST + O(lg|V|); Algorithm 3 needs
  // O(lg|V|) per crash on top.  A 40x slack absorbs chaotic pre-CST phases
  // and keeps never-terminating cells (NoCD, naive) cheap to simulate.
  const Round lg = ceil_log2(std::max<std::uint64_t>(spec.num_values, 2));
  return spec.cst_target + 100 + 40 * (lg + 1);
}

World WorldFactory::make(const ScenarioSpec& spec) {
  return with_algorithm(spec, [&](const ConsensusAlgorithm& algorithm) {
    return ccd::make_world(algorithm, make_initial_values(spec), make_cm(spec),
                           make_detector(spec), make_loss(spec),
                           make_fault(spec));
  });
}

// --- multihop path ---------------------------------------------------------

Topology WorldFactory::make_topology(const ScenarioSpec& spec) {
  const std::size_t n = spec.n;
  switch (spec.topology) {
    case TopologyKind::kSingleHop:
      return Topology::clique(n);
    case TopologyKind::kLine:
      return Topology::line(n);
    case TopologyKind::kRing:
      return Topology::ring(n);
    case TopologyKind::kGrid:
      return Topology::grid_n(n);
    case TopologyKind::kRandomGeometric: {
      const std::uint64_t base = sub_seed(spec, kTopoSalt);
      if (n < 2) return Topology::random_geometric(n, 0.0, base);
      // radius^2 * pi = density * ln(n) / n: density 1.0 is the asymptotic
      // connectivity threshold of the unit-disk model; the spec documents
      // a floor of 2.0.  Bounded retries on derived seeds make connected
      // instances deterministic in practice at the floor.
      const double radius =
          std::sqrt(std::max(0.0, spec.density) *
                    std::log(static_cast<double>(n)) /
                    (3.14159265358979323846 * static_cast<double>(n)));
      Topology topo = Topology::random_geometric(n, radius, base);
      for (std::uint64_t attempt = 1; attempt < 32 && !topo.connected();
           ++attempt) {
        topo = Topology::random_geometric(n, radius, hash_mix(base + attempt));
      }
      return topo;
    }
  }
  return Topology::clique(n);
}

MhLinkModel WorldFactory::make_link(const ScenarioSpec& spec) {
  switch (spec.loss) {
    case LossKind::kNoLoss: return {1.0, 1.0};
    case LossKind::kEcf: return {0.95, 0.05};
    case LossKind::kProbabilistic:
      return {spec.p_deliver, 0.5 * spec.p_deliver};
    case LossKind::kUnrestricted: return {0.5, 0.0};
  }
  return {1.0, 1.0};
}

Round WorldFactory::multihop_max_rounds(const ScenarioSpec& spec) {
  if (spec.max_rounds > 0) return spec.max_rounds;
  // Flood needs Omega(diameter) <= n hops, each a lone-broadcast lottery;
  // MIS settles in O(lg n) phases.  Linear slack covers both.
  return 200 + 40 * static_cast<Round>(spec.n);
}

std::uint64_t WorldFactory::mh_proc_seed(const ScenarioSpec& spec) {
  return sub_seed(spec, kMhProcSalt);
}

std::uint64_t WorldFactory::mh_link_seed(const ScenarioSpec& spec) {
  return sub_seed(spec, kMhLinkSalt);
}

ScenarioSpec WorldFactory::phase2_spec(const ScenarioSpec& spec,
                                       std::uint32_t k) {
  ScenarioSpec sub = spec;
  sub.topology = TopologyKind::kSingleHop;
  sub.workload = WorkloadKind::kConsensus;
  sub.n = k;
  sub.seed = sub_seed(spec, kPhase2Salt);
  if (sub.fault == FaultKind::kScheduled) {
    sub.fault = FaultKind::kNone;
    sub.crash_schedule.clear();
    sub.crash_schedule_name.clear();
  }
  return sub;
}

namespace {

/// Claim E13's substrate workload: below the round abstraction entirely, so it
/// bypasses the engine and asks the reference-broadcast synchronizer
/// whether synchronized rounds exist at all under this drift/loss regime.
SyncSummary run_round_sync(const ScenarioSpec& spec) {
  SyncSummary s;
  s.ran = true;
  if (spec.n == 0) return s;
  RoundSynchronizer::Options o;
  o.n = spec.n;
  o.rho = spec.sync_rho;
  o.epoch = 1.0;
  o.jitter = 1e-5;
  o.beacon_loss = std::clamp(1.0 - spec.p_deliver, 0.0, 1.0);
  o.round_length = spec.sync_round_length;
  o.horizon = 60.0;
  o.seed = sub_seed(spec, kSyncSalt);
  RoundSynchronizer sync(o);
  s.max_skew = sync.measured_max_skew(500);
  s.skew_bound = sync.skew_bound();
  s.round_agreement = sync.round_agreement_fraction(500);
  s.within_bound = s.max_skew <= s.skew_bound;
  return s;
}

}  // namespace

ScenarioOutcome WorldFactory::run_scenario(const ScenarioSpec& spec,
                                           const RunScenarioOptions& options) {
  if (spec.workload == WorkloadKind::kRoundSync) {
    ScenarioOutcome out;
    out.sync = run_round_sync(spec);
    return out;
  }
  return std::move(LaneExecutor::run_block({spec}, options).front());
}

}  // namespace ccd::exp
