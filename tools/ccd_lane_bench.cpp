// ccd_lane_bench: self-timed one-world-vs-64-lane engine throughput,
// emitted as ccd-bench-v1 JSON (BENCH_engine_lanes.json in CI).  The
// "scalar" arm runs each world alone on a one-lane LaneEngine (what
// sim::Executor, run_scenario and --no-lanes do); the "lane" arm batches
// 64 worlds per engine.
//
// Three engine shapes, each measured with fresh engines over a fixed round
// count (persistent engines quiesce and stop representing sweep work):
//
//   consensus_clique  loss-free single-hop consensus (busy head, quiet
//                     tail) -- the production E2..E7 shape
//   saturated_clique  every process broadcasts every round -- worst-case
//                     clique delivery load
//   mis_grid          MIS over the capture channel -- per-lane RNG work
//                     batching cannot share, so roughly 1x is the honest
//                     expectation
//
// rounds_per_sec counts WORLD-rounds (a 64-lane step is 64 of them), so
// speedup = lane / scalar is the per-world-round ratio a sweep sees.
//
// Usage: ccd_lane_bench [--out PATH] [--rounds N] [--reps N]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cd/oracle_detector.hpp"
#include "cm/wakeup_service.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "multihop/flood.hpp"
#include "multihop/mis.hpp"
#include "net/no_loss.hpp"

namespace ccd {
namespace {

EngineWorld consensus_clique(std::size_t n, std::uint64_t seed) {
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

EngineWorld saturated_clique(std::size_t n, std::uint64_t seed) {
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

EngineWorld mis_grid(std::size_t n, std::uint64_t seed) {
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

using MakeWorld = EngineWorld (*)(std::size_t, std::uint64_t);

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// World-rounds per second through fresh one-lane engines.
double scalar_rounds_per_sec(MakeWorld make, std::size_t n, Round rounds,
                             int reps) {
  EngineOptions options;
  options.stop_when_all_decided = false;
  const double t0 = now_secs();
  for (int rep = 0; rep < reps; ++rep) {
    LaneEngine engine(make(n, 7 + rep), options);
    for (Round r = 0; r < rounds; ++r) engine.step();
  }
  const double dt = now_secs() - t0;
  return dt > 0 ? static_cast<double>(rounds) * reps / dt : 0.0;
}

/// World-rounds per second through fresh 64-lane engines.
double lane_rounds_per_sec(MakeWorld make, std::size_t n, Round rounds,
                           int reps) {
  EngineOptions options;
  options.stop_when_all_decided = false;
  const double t0 = now_secs();
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<EngineWorld> worlds;
    worlds.reserve(kLaneWidth);
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      worlds.push_back(make(n, 1000 * rep + l));
    }
    LaneEngine engine(std::move(worlds), options);
    for (Round r = 0; r < rounds; ++r) engine.step();
  }
  const double dt = now_secs() - t0;
  return dt > 0 ? static_cast<double>(rounds) * reps * kLaneWidth / dt : 0.0;
}

}  // namespace
}  // namespace ccd

int main(int argc, char** argv) {
  std::string out_path;
  ccd::Round rounds = 128;
  int reps = 6;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--out") {
      const char* v = next();
      if (!v) {
        std::fprintf(stderr, "ccd_lane_bench: --out wants a path\n");
        return 2;
      }
      out_path = v;
    } else if (flag == "--rounds") {
      const char* v = next();
      if (!v || std::atoi(v) <= 0) {
        std::fprintf(stderr, "ccd_lane_bench: --rounds wants a positive N\n");
        return 2;
      }
      rounds = static_cast<ccd::Round>(std::atoi(v));
    } else if (flag == "--reps") {
      const char* v = next();
      if (!v || std::atoi(v) <= 0) {
        std::fprintf(stderr, "ccd_lane_bench: --reps wants a positive N\n");
        return 2;
      }
      reps = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "usage: ccd_lane_bench [--out PATH] [--rounds N] "
                   "[--reps N]\n");
      return flag == "--help" || flag == "-h" ? 0 : 2;
    }
  }

  struct Config {
    const char* name;
    ccd::MakeWorld make;
    /// Divide the lane rep count for expensive configs to bound runtime.
    int lane_rep_div;
  };
  const Config configs[] = {
      {"consensus_clique", ccd::consensus_clique, 2},
      {"saturated_clique", ccd::saturated_clique, 2},
      {"mis_grid", ccd::mis_grid, 2},
  };
  const std::size_t sizes[] = {16, 64, 256};

  std::string out = "{\"format\":\"ccd-bench-v1\"";
  out += ",\"bench\":\"engine_lanes\"";
  out += ",\"lane_width\":" + std::to_string(ccd::kLaneWidth);
  out += ",\"rounds\":" + std::to_string(rounds);
  out += ",\"entries\":[";
  char buffer[256];
  bool first = true;
  for (const Config& config : configs) {
    for (const std::size_t n : sizes) {
      const double scalar =
          ccd::scalar_rounds_per_sec(config.make, n, rounds, reps);
      const double lane = ccd::lane_rounds_per_sec(
          config.make, n, rounds, std::max(1, reps / config.lane_rep_div));
      if (!first) out += ",";
      first = false;
      std::snprintf(buffer, sizeof buffer,
                    "{\"config\":\"%s\",\"n\":%zu,"
                    "\"scalar_rounds_per_sec\":%.1f,"
                    "\"lane_rounds_per_sec\":%.1f,\"speedup\":%.2f}",
                    config.name, n, scalar, lane,
                    scalar > 0 ? lane / scalar : 0.0);
      out += buffer;
      std::fprintf(stderr, "ccd_lane_bench: %s n=%zu scalar=%.0f/s "
                   "lane=%.0f/s speedup=%.2fx\n",
                   config.name, n, scalar, lane,
                   scalar > 0 ? lane / scalar : 0.0);
    }
  }
  out += "]}\n";

  if (out_path.empty()) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "ccd_lane_bench: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return 0;
}
