// E12 -- simulator micro-performance (google-benchmark): round throughput
// of the round engine (through the single-hop Executor adapter, one-lane
// engines in the multihop capture/local configurations, and 64-lane
// twins), detector advice cost, and loss-adversary cost.  Not a paper
// experiment; establishes that the sweeps in E2..E11 measure algorithm
// behaviour, not harness overhead --
// and that the engine's hot loop stays allocation-free in steady state
// (the BM_EngineRound* numbers are the before/after gate for engine
// refactors; CI prints them so regressions show up in logs).
#include <benchmark/benchmark.h>

#include "cd/oracle_detector.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg1_maj_oac.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "fault/failure_adversary.hpp"
#include "multihop/flood.hpp"
#include "multihop/mis.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "obs/perf_sidecar.hpp"
#include "sim/executor.hpp"

namespace ccd {
namespace {

/// A one-lane engine (one world, no recording) stepped until the caller
/// stops.
LaneEngine one_lane(EngineWorld ew) {
  EngineOptions options;
  options.stop_when_all_decided = false;
  return LaneEngine(std::move(ew), options);
}

World bench_world(std::size_t n, bool record_views) {
  (void)record_views;
  Alg2Algorithm alg(1 << 16);
  WakeupService::Options ws;
  ws.r_wake = 1u << 30;  // never stabilize: keep everyone chatting
  ws.pre = WakeupService::PreStabilization::kAllActive;
  EcfAdversary::Options ecf;
  ecf.r_cf = 1u << 30;
  ecf.pre = EcfAdversary::PreMode::kRandom;
  ecf.p_deliver = 0.5;
  return make_world(alg, random_initial_values(n, 1 << 16, 7),
                    std::make_unique<WakeupService>(ws),
                    std::make_unique<OracleDetector>(
                        DetectorSpec::ZeroOAC(1u << 30),
                        make_truthful_policy()),
                    std::make_unique<EcfAdversary>(ecf),
                    std::make_unique<NoFailures>());
}

void BM_ExecutorRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ExecutorOptions options;
  options.record_views = false;
  options.stop_when_all_decided = false;
  Executor executor(bench_world(n, false), options);
  for (auto _ : state) {
    executor.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExecutorRound)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ExecutorRoundWithViews(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ExecutorOptions options;
  options.record_views = true;
  options.stop_when_all_decided = false;
  Executor executor(bench_world(n, true), options);
  for (auto _ : state) {
    executor.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExecutorRoundWithViews)->Arg(16)->Arg(64);

// The engine's capture-channel / local-scope configuration (the legacy
// multihop semantics): MIS processes on a grid topology, no logging --
// the allocation-free steady state the sweeps run in.
void BM_EngineRoundCaptureGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    MisProcess::Options o;
    o.seed = 1000 + i;
    ew.world.processes.push_back(std::make_unique<MisProcess>(o));
  }
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.topology = Topology::grid_n(n);
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = {0.9, 0.3};
  ew.link_seed = 7;
  LaneEngine engine = one_lane(std::move(ew));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRoundCaptureGrid)->Arg(16)->Arg(64)->Arg(256);

// The unification's new composition: a full consensus stack (loss
// adversary, wakeup CM, detector envelope) over a NON-clique topology with
// per-neighborhood collision semantics.
void BM_EngineRoundMatrixLocal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Alg2Algorithm alg(1 << 16);
  WakeupService::Options ws;
  ws.r_wake = 1u << 30;
  ws.pre = WakeupService::PreStabilization::kAllActive;
  EcfAdversary::Options ecf;
  ecf.r_cf = 1u << 30;
  ecf.pre = EcfAdversary::PreMode::kRandom;
  ecf.p_deliver = 0.5;
  EngineWorld ew;
  ew.world = make_world(alg, random_initial_values(n, 1 << 16, 7),
                        std::make_unique<WakeupService>(ws),
                        std::make_unique<OracleDetector>(
                            DetectorSpec::ZeroOAC(1u << 30),
                            make_truthful_policy()),
                        std::make_unique<EcfAdversary>(ecf),
                        std::make_unique<NoFailures>());
  ew.topology = Topology::grid_n(n);
  ew.channel = ChannelModel::kMatrix;
  ew.scope = CollisionScope::kLocal;
  LaneEngine engine = one_lane(std::move(ew));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRoundMatrixLocal)->Arg(16)->Arg(64)->Arg(256);

// ---- one-lane vs 64-lane twin pairs -------------------------------------
// Each pair constructs a FRESH engine per measurement batch and runs a
// fixed round count.  A persistent engine drifts into its quiesced steady
// state over thousands of benchmark iterations (everyone decided, nobody
// broadcasting) and stops representing what sweeps execute: fresh worlds
// whose early rounds carry all the contention.  items/sec counts
// process-rounds across every lane, so the 64-lane/one-lane items-per-
// second ratio IS the batching speedup (construction cost included in
// both, amortized over the same round count).
constexpr Round kTwinRounds = 128;

// Production single-hop shape: loss-free clique consensus.  Broadcasts
// taper as estimates converge, so this measures the busy-head/quiet-tail
// mix a real consensus run has.
EngineWorld clique_world(std::size_t n, std::uint64_t seed) {
  Alg2Algorithm alg(1 << 16);
  WakeupService::Options ws;
  ws.r_wake = 1u << 30;
  ws.pre = WakeupService::PreStabilization::kAllActive;
  EngineWorld ew;
  ew.world = make_world(alg, random_initial_values(n, 1 << 16, seed),
                        std::make_unique<WakeupService>(ws),
                        std::make_unique<OracleDetector>(
                            DetectorSpec::ZeroOAC(1u << 30),
                            make_truthful_policy()),
                        std::make_unique<NoLoss>(),
                        std::make_unique<NoFailures>());
  ew.topology = Topology::clique(n);
  ew.channel = ChannelModel::kMatrix;
  ew.scope = CollisionScope::kGlobal;
  return ew;
}

// Worst-case clique load: every process broadcasts every round, forever
// (flooding with p = 1 and an unbounded freshness window).  This is the
// clique delivery load the engine's shared-multiset path amortizes.
EngineWorld saturated_world(std::size_t n, std::uint64_t seed) {
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    FloodProcess::Options o;
    o.is_source = i == 0;
    o.policy = FloodPolicy::kFixed;
    o.p_broadcast = 1.0;
    o.fresh_rounds = 1u << 30;
    o.seed = seed * 131 + i;
    ew.world.processes.push_back(std::make_unique<FloodProcess>(o));
  }
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.world.loss = std::make_unique<NoLoss>();
  ew.world.fault = std::make_unique<NoFailures>();
  ew.topology = Topology::clique(n);
  ew.channel = ChannelModel::kMatrix;
  ew.scope = CollisionScope::kGlobal;
  return ew;
}

// Multihop shape: MIS over the capture channel on a grid.  Per-lane RNG
// streams make this irreducibly per-world work, so the lane twin measures
// the batched engine's overhead (and cache behaviour), not a vector win.
EngineWorld mis_grid_world(std::size_t n, std::uint64_t seed) {
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    MisProcess::Options o;
    o.seed = seed * 131 + i;
    ew.world.processes.push_back(std::make_unique<MisProcess>(o));
  }
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.topology = Topology::grid_n(n);
  ew.channel = ChannelModel::kCapture;
  ew.scope = CollisionScope::kLocal;
  ew.link = {0.9, 0.3};
  ew.link_seed = seed;
  return ew;
}

template <EngineWorld (*MakeWorld)(std::size_t, std::uint64_t)>
void one_lane_twin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 7;
  for (auto _ : state) {
    LaneEngine engine = one_lane(MakeWorld(n, seed++));
    for (Round r = 0; r < kTwinRounds; ++r) engine.step();
    benchmark::DoNotOptimize(engine.counters(0));
  }
  state.SetItemsProcessed(state.iterations() * kTwinRounds * n);
}

template <EngineWorld (*MakeWorld)(std::size_t, std::uint64_t)>
void lane_twin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EngineOptions options;
  options.stop_when_all_decided = false;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    std::vector<EngineWorld> worlds;
    worlds.reserve(kLaneWidth);
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      worlds.push_back(MakeWorld(n, seed++));
    }
    LaneEngine engine(std::move(worlds), options);
    for (Round r = 0; r < kTwinRounds; ++r) engine.step();
    benchmark::DoNotOptimize(engine.counters(0));
  }
  state.SetItemsProcessed(state.iterations() * kTwinRounds * n * kLaneWidth);
}

void BM_EngineRoundConsensusClique(benchmark::State& state) {
  one_lane_twin<clique_world>(state);
}
BENCHMARK(BM_EngineRoundConsensusClique)->Arg(16)->Arg(64);

void BM_LaneEngineRoundConsensusClique(benchmark::State& state) {
  lane_twin<clique_world>(state);
}
BENCHMARK(BM_LaneEngineRoundConsensusClique)->Arg(16)->Arg(64);

void BM_EngineRoundSaturatedClique(benchmark::State& state) {
  one_lane_twin<saturated_world>(state);
}
BENCHMARK(BM_EngineRoundSaturatedClique)->Arg(16)->Arg(64)->Arg(256);

void BM_LaneEngineRoundSaturatedClique(benchmark::State& state) {
  lane_twin<saturated_world>(state);
}
BENCHMARK(BM_LaneEngineRoundSaturatedClique)->Arg(16)->Arg(64)->Arg(256);

void BM_EngineRoundMisGrid(benchmark::State& state) {
  one_lane_twin<mis_grid_world>(state);
}
BENCHMARK(BM_EngineRoundMisGrid)->Arg(16)->Arg(64);

void BM_LaneEngineRoundMisGrid(benchmark::State& state) {
  lane_twin<mis_grid_world>(state);
}
BENCHMARK(BM_LaneEngineRoundMisGrid)->Arg(16)->Arg(64);

void BM_DetectorAdvice(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  OracleDetector det(DetectorSpec::MajOAC(100), make_truthful_policy());
  std::vector<std::uint32_t> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<std::uint32_t>(i % 9);
  }
  std::vector<CdAdvice> advice;
  Round r = 1;
  for (auto _ : state) {
    det.advise(r++, 8, t, advice);
    benchmark::DoNotOptimize(advice);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetectorAdvice)->Arg(16)->Arg(256);

void BM_LossDelivery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EcfAdversary::Options opts;
  opts.r_cf = 1u << 30;
  opts.pre = EcfAdversary::PreMode::kCapture;
  EcfAdversary loss(opts);
  std::vector<bool> sent(n, true);
  DeliveryMatrix m;
  Round r = 1;
  for (auto _ : state) {
    m.reset(n, false);
    loss.decide_delivery(r++, sent, m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_LossDelivery)->Arg(16)->Arg(256);

// Sweep throughput measured on REAL sweep runs through the telemetry
// counters: items/sec is engine rounds/sec over a small smoke grid, the
// same number `ccd_sweep --bench-out` reports on the full grids.  Replaces
// eyeballing BM_EngineRound* against sweep wall time -- the counter totals
// are deterministic, so iterations differ only in wall clock.
void BM_SweepThroughput(benchmark::State& state) {
  auto grid = exp::SweepGrid::named("smoke");
  if (!grid) {
    state.SkipWithError("smoke grid missing");
    return;
  }
  grid->seeds_per_cell = 2;
  std::uint64_t rounds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    obs::SweepPerf perf;
    exp::SweepOptions options;
    options.threads = 1;
    options.lanes = false;  // one-run blocks; lane twin below
    options.perf = &perf;
    benchmark::DoNotOptimize(exp::run_sweep(*grid, options));
    rounds += perf.counters.rounds;
    runs += perf.runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["runs"] = static_cast<double>(runs);
}
BENCHMARK(BM_SweepThroughput)->Unit(benchmark::kMillisecond);

// Same real-sweep measurement through the lane path (64 seeds per cell so
// blocks actually fill); compare against BM_SweepThroughputScalarWide --
// the identical grid with lanes off -- for the end-to-end sweep speedup
// including per-run world construction.
void BM_SweepThroughputLanes(benchmark::State& state) {
  auto grid = exp::SweepGrid::named("smoke");
  if (!grid) {
    state.SkipWithError("smoke grid missing");
    return;
  }
  grid->seeds_per_cell = 64;
  std::uint64_t rounds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    obs::SweepPerf perf;
    exp::SweepOptions options;
    options.threads = 1;
    options.lanes = true;
    options.perf = &perf;
    benchmark::DoNotOptimize(exp::run_sweep(*grid, options));
    rounds += perf.counters.rounds;
    runs += perf.runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["runs"] = static_cast<double>(runs);
}
BENCHMARK(BM_SweepThroughputLanes)->Unit(benchmark::kMillisecond);

void BM_SweepThroughputScalarWide(benchmark::State& state) {
  auto grid = exp::SweepGrid::named("smoke");
  if (!grid) {
    state.SkipWithError("smoke grid missing");
    return;
  }
  grid->seeds_per_cell = 64;
  std::uint64_t rounds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    obs::SweepPerf perf;
    exp::SweepOptions options;
    options.threads = 1;
    options.lanes = false;
    options.perf = &perf;
    benchmark::DoNotOptimize(exp::run_sweep(*grid, options));
    rounds += perf.counters.rounds;
    runs += perf.runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["runs"] = static_cast<double>(runs);
}
BENCHMARK(BM_SweepThroughputScalarWide)->Unit(benchmark::kMillisecond);

void BM_FullConsensusRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Alg1Algorithm alg;
    WakeupService::Options ws;
    ws.r_wake = 10;
    EcfAdversary::Options ecf;
    ecf.r_cf = 10;
    World world = make_world(
        alg, random_initial_values(n, 64, 3),
        std::make_unique<WakeupService>(ws),
        std::make_unique<OracleDetector>(DetectorSpec::MajOAC(10),
                                         make_truthful_policy()),
        std::make_unique<EcfAdversary>(ecf),
        std::make_unique<NoFailures>());
    ExecutorOptions options;
    options.record_views = false;
    Executor executor(std::move(world), options);
    benchmark::DoNotOptimize(executor.run(100));
  }
}
BENCHMARK(BM_FullConsensusRun)->Arg(8)->Arg(64);

}  // namespace
}  // namespace ccd

BENCHMARK_MAIN();
