#include "exp/sweep_grid.hpp"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

template <typename T>
std::size_t radix(const std::vector<T>& axis) {
  return axis.empty() ? 1 : axis.size();
}

}  // namespace

std::size_t SweepGrid::num_cells() const {
  std::size_t cells = 1;
  for_each_axis([&](const auto& axis) { cells *= radix(this->*axis.values); });
  return cells;
}

ScenarioSpec SweepGrid::spec_for_cell(std::size_t cell_index) const {
  // Peel the mixed-radix digits innermost first, one division per axis.
  // An empty axis has radix 1 and keeps the base value.
  ScenarioSpec spec = base;
  auto peel = [&](const auto& axis) {
    const auto& values = this->*axis.values;
    if (values.empty()) return;
    spec.*axis.field = values[cell_index % values.size()];
    cell_index /= values.size();
  };
  // by_digit[d]: the position in kAxes of the axis whose digit is d.
  static constexpr auto by_digit = [] {
    std::array<std::size_t, kNumAxes> order{};
    std::size_t i = 0;
    for_each_axis([&](const auto& axis) { order[axis.digit] = i++; });
    return order;
  }();
  [&]<std::size_t... D>(std::index_sequence<D...>) {
    (peel(std::get<by_digit[D]>(kAxes)), ...);
  }(std::make_index_sequence<kNumAxes>{});
  spec.seed = 0;
  return spec;
}

std::uint64_t SweepGrid::seed_for_run(std::size_t run_index) const {
  return hash_mix(hash_mix(grid_seed) ^ static_cast<std::uint64_t>(run_index));
}

ScenarioSpec SweepGrid::spec_for_run(std::size_t run_index) const {
  ScenarioSpec spec = spec_for_cell(cell_of_run(run_index));
  spec.seed = seed_for_run(run_index);
  return spec;
}

std::optional<std::string> SweepGrid::validate() const {
  // Consensus x non-singlehop topology was rejected here before the
  // engine unification; it is now a first-class combination (the
  // engine drives the same loss/cm/detector/fault stack over any graph
  // with per-neighborhood collision semantics), so no topology constraint
  // remains.

  if (!(base.p_deliver >= 0 && base.p_deliver <= 1)) {
    return "bad value '" + jsonu::format_double(base.p_deliver) +
           "' for key 'p_deliver' (expected a probability in [0, 1])";
  }

  // Scheduled-crash cells must have a schedule to run, and every named
  // generator -- swept or set on the base -- must exist.
  auto unknown = [](const std::string& name, const char* what) {
    return "bad value '" + name + "' for " + what + " (expected " +
           Codec<std::string>::expected() + ")";
  };
  for (const std::string& name : crash_schedules) {
    if (!find_crash_schedule(name)) {
      return unknown(name, "axis 'crash_schedules'");
    }
  }
  if (!base.crash_schedule_name.empty() &&
      !find_crash_schedule(base.crash_schedule_name)) {
    return unknown(base.crash_schedule_name, "key 'crash_schedule_name'");
  }
  const bool any_scheduled =
      faults.empty() ? base.fault == FaultKind::kScheduled
                     : std::find(faults.begin(), faults.end(),
                                 FaultKind::kScheduled) != faults.end();
  const bool have_schedule = !crash_schedules.empty() ||
                             !base.crash_schedule_name.empty() ||
                             !base.crash_schedule.empty();
  if (any_scheduled && !have_schedule) {
    return "fault=scheduled cells need a crash schedule: set a "
           "crash_schedules axis, base.crash_schedule_name, or an explicit "
           "base.crash_schedule";
  }
  return std::nullopt;
}

std::optional<SweepGrid> SweepGrid::named(const std::string& name) {
  SweepGrid grid;
  if (name == "smoke") {
    // Fast sanity product: every algorithm in its friendliest world.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg4};
    grid.detectors = {DetectorKind::kMajOAC};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.ns = {4, 8};
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.seeds_per_cell = 3;
    return grid;
  }
  if (name == "default") {
    // The broad robustness product: 5 algs x 5 detector classes x 2 CMs x
    // 3 loss adversaries = 150 cells.  Cells pairing an algorithm with a
    // detector class weaker than its theorem requires are informative,
    // not errors: the aggregator counts their property failures.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                 AlgKind::kAlg4, AlgKind::kNaive};
    grid.detectors = {DetectorKind::kAC, DetectorKind::kMajOAC,
                      DetectorKind::kZeroOAC, DetectorKind::kZeroAC,
                      DetectorKind::kNoCd};
    grid.cms = {CmKind::kWakeup, CmKind::kBackoff};
    grid.losses = {LossKind::kEcf, LossKind::kProbabilistic,
                   LossKind::kNoLoss};
    grid.base.n = 8;
    grid.base.num_values = 16;
    grid.base.cst_target = 8;
    grid.base.p_deliver = 0.6;
    grid.seeds_per_cell = 2;
    return grid;
  }
  if (name == "policies") {
    // Detector-behaviour ablation (claim E15's shape):
    // behaviour inside a class envelope vs the class itself.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2};
    grid.detectors = {DetectorKind::kOAC, DetectorKind::kMajOAC,
                      DetectorKind::kHalfOAC, DetectorKind::kZeroOAC};
    grid.policies = {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                     PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                     PolicyKind::kFlakyMajority};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.base.n = 8;
    grid.base.num_values = 256;
    grid.base.cst_target = 10;
    grid.seeds_per_cell = 4;
    return grid;
  }
  if (name == "crash") {
    // Crash-failure sweep across algorithms and process counts.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg4};
    grid.detectors = {DetectorKind::kMajOAC, DetectorKind::kZeroOAC};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                   FaultKind::kScheduled};
    grid.ns = {4, 8, 16, 32};
    grid.base.num_values = 64;
    grid.base.cst_target = 12;
    grid.base.crash_p = 0.05;
    grid.base.crash_schedule_name = "leaf-then-die";
    grid.base.chaos = ChaosKind::kChaotic;
    grid.seeds_per_cell = 4;
    return grid;
  }
  if (name == "mhloss") {
    // The unification's acceptance grid: the paper's CONSENSUS stack --
    // loss adversaries (including loss != none), contention managers and
    // detector envelopes -- composed with non-clique topologies through
    // the one engine path.  Per-neighborhood collision detection over
    // sparse graphs starves the anonymous protocols of global information,
    // so failure rows here are data (how far does single-hop consensus
    // degrade beyond one hop?), not errors.
    grid.topologies = {TopologyKind::kLine, TopologyKind::kRing,
                       TopologyKind::kGrid, TopologyKind::kRandomGeometric};
    grid.losses = {LossKind::kEcf, LossKind::kProbabilistic,
                   LossKind::kUnrestricted};
    grid.cms = {CmKind::kNoCm, CmKind::kWakeup};
    grid.ns = {8, 16};
    grid.base.alg = AlgKind::kAlg2;
    grid.base.detector = DetectorKind::kZeroAC;
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.base.p_deliver = 0.6;
    grid.seeds_per_cell = 2;
    return grid;
  }
  if (name == "multihop") {
    // The conclusion's extension as a grid: every multihop workload over
    // every topology shape, friendly and capture-effect link physics, and
    // two RGG densities (the density axis is inert for non-rgg cells).
    // A zero-complete accurate detector is the carrier-sense-grade local
    // detection the deployment story assumes; sweep --detectors nocd to
    // ablate the collision feedback away.
    grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMis,
                      WorkloadKind::kMisThenConsensus};
    grid.topologies = {TopologyKind::kLine, TopologyKind::kRing,
                       TopologyKind::kGrid, TopologyKind::kRandomGeometric};
    grid.densities = {2.0, 3.0};
    grid.losses = {LossKind::kNoLoss, LossKind::kEcf};
    grid.ns = {8, 16, 32};
    // Crash axis: failure-free, iid crashes through CST, and Theorem 3's
    // worst-case leaf-then-die schedule (sweep --crash-schedules to try
    // other generators, e.g. source-dies).
    grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                   FaultKind::kScheduled};
    grid.crash_schedules = {"leaf-then-die"};
    grid.base.detector = DetectorKind::kZeroAC;
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.base.crash_p = 0.05;
    grid.seeds_per_cell = 3;
    return grid;
  }
  return std::nullopt;
}

std::vector<std::string> SweepGrid::grid_names() {
  return {"smoke", "default", "policies", "crash", "multihop", "mhloss"};
}

std::string SweepGrid::to_json() const {
  // Fixed key order; every axis present even when empty.  This exact byte
  // sequence is the fingerprint() preimage, so the order is part of the
  // shard-compatibility contract -- do not reorder.
  std::string out = "{\"grid_seed\":";
  numfmt::append_int(out, grid_seed);
  out += ",\"seeds_per_cell\":";
  numfmt::append_int(out, seeds_per_cell);
  out += ",\"base\":";
  out += base.to_json();
  for_each_axis([&](const auto& axis) {
    out += ",\"";
    out += axis.key;
    out += "\":[";
    for (const auto& value : this->*axis.values) {
      Codec<std::remove_cvref_t<decltype(value)>>::append(out, value);
      out += ',';
    }
    if (out.back() == ',') out.pop_back();
    out += ']';
  });
  out += '}';
  return out;
}

std::optional<SweepGrid> SweepGrid::from_json(std::string_view json,
                                              std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<SweepGrid> {
    if (error) *error = message;
    return std::nullopt;
  };
  auto flat = jsonu::FlatJson::parse(json);
  if (!flat) return fail("grid is not a flat JSON object");

  for (const jsonu::FlatJson::Member& member : flat->members) {
    const std::string_view key = member.key;
    bool known = key == "grid_seed" || key == "seeds_per_cell" ||
                 key == "base";
    for_each_axis([&](const auto& axis) { known = known || key == axis.key; });
    // A typo'd axis name must not silently sweep nothing.
    if (!known) {
      return fail("unknown key '" + std::string(key) + "' in grid JSON");
    }
  }

  SweepGrid grid;
  std::string first_error;
  auto report = [&](const std::string& message) {
    if (first_error.empty()) first_error = message;
  };
  if (const auto raw = flat->find("base")) {
    std::string base_error;
    auto base = ScenarioSpec::from_json(*raw, &base_error);
    if (base) {
      grid.base = *base;
    } else {
      report("base: " + base_error);
    }
  }
  if (const auto raw = flat->find("grid_seed")) {
    if (auto v = jsonu::parse_u64(*raw)) {
      grid.grid_seed = *v;
    } else {
      report("bad value '" + std::string(*raw) + "' for key 'grid_seed'");
    }
  }
  if (const auto raw = flat->find("seeds_per_cell")) {
    if (auto v = jsonu::parse_u64(*raw, ~0u)) {
      grid.seeds_per_cell = static_cast<std::uint32_t>(*v);
    } else {
      report("bad value '" + std::string(*raw) +
             "' for key 'seeds_per_cell'");
    }
  }
  for_each_axis([&](const auto& axis) {
    const auto raw = flat->find(axis.key);
    if (!raw || !first_error.empty()) return;  // absent axis stays empty
    std::string item_error;
    if (!jsonu::for_each_item(*raw, [&](std::string_view item) {
          return push_axis_value(axis, item, grid, &item_error);
        })) {
      report(item_error.empty()
                 ? "axis '" + std::string(axis.key) + "' is not a JSON array"
                 : item_error);
    }
  });

  if (!first_error.empty()) return fail(first_error);
  return grid;
}

std::uint64_t SweepGrid::fingerprint() const {
  // FNV-1a 64 over the canonical JSON.
  const std::string canon = to_json();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : canon) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ccd::exp
