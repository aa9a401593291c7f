#include "exp/sweep_grid.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "util/flat_json.hpp"
#include "util/numfmt.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

template <typename T>
std::size_t radix(const std::vector<T>& axis) {
  return axis.empty() ? 1 : axis.size();
}

/// Peel one mixed-radix digit off `index` and apply the axis value (if the
/// axis is non-empty) to `field`.
template <typename T, typename F>
void apply_axis(std::size_t& index, const std::vector<T>& axis, F& field) {
  const std::size_t r = radix(axis);
  const std::size_t digit = index % r;
  index /= r;
  if (!axis.empty()) field = static_cast<F>(axis[digit]);
}

}  // namespace

std::size_t SweepGrid::num_cells() const {
  return radix(algs) * radix(detectors) * radix(policies) * radix(cms) *
         radix(losses) * radix(faults) * radix(ns) * radix(value_spaces) *
         radix(csts) * radix(topologies) * radix(densities) *
         radix(workloads) * radix(crash_schedules);
}

ScenarioSpec SweepGrid::spec_for_cell(std::size_t cell_index) const {
  ScenarioSpec spec = base;
  std::size_t index = cell_index;
  // Innermost axis first; the order here fixes the enumeration order and is
  // part of the on-disk cell numbering, so do not reorder casually.  (The
  // multihop axes sit innermost of the new digits / outermost overall so
  // that grids without them keep their PR-1 cell numbering: an empty axis
  // has radix 1 and peels nothing.)
  apply_axis(index, csts, spec.cst_target);
  apply_axis(index, value_spaces, spec.num_values);
  apply_axis(index, ns, spec.n);
  apply_axis(index, faults, spec.fault);
  apply_axis(index, losses, spec.loss);
  apply_axis(index, cms, spec.cm);
  apply_axis(index, policies, spec.policy);
  apply_axis(index, detectors, spec.detector);
  apply_axis(index, algs, spec.alg);
  apply_axis(index, densities, spec.density);
  apply_axis(index, topologies, spec.topology);
  apply_axis(index, workloads, spec.workload);
  apply_axis(index, crash_schedules, spec.crash_schedule_name);
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
  const auto known = crash_schedule_names();
  auto known_name = [&](const std::string& name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  };
  std::string known_list;
  for (const std::string& name : known) {
    if (!known_list.empty()) known_list += ", ";
    known_list += name;
  }
  for (const std::string& name : crash_schedules) {
    if (!known_name(name)) {
      return "bad value '" + name +
             "' for axis 'crash_schedules' (known generators: " + known_list +
             ")";
    }
  }
  if (!base.crash_schedule_name.empty() &&
      !known_name(base.crash_schedule_name)) {
    return "bad value '" + base.crash_schedule_name +
           "' for key 'crash_schedule_name' (known generators: " +
           known_list + ")";
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

namespace {

template <typename T>
void append_enum_axis(std::string& out, const char* key,
                      const std::vector<T>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += to_string(axis[i]);
    out += "\"";
  }
  out += "],";
}

void append_string_axis(std::string& out, const char* key,
                        const std::vector<std::string>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonu::quote(axis[i]);
  }
  out += "],";
}

template <typename T>
void append_uint_axis(std::string& out, const char* key,
                      const std::vector<T>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    numfmt::append_int(out, axis[i]);
  }
  out += "],";
}

}  // namespace

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
  out += ",";
  append_enum_axis(out, "algs", algs);
  append_enum_axis(out, "detectors", detectors);
  append_enum_axis(out, "policies", policies);
  append_enum_axis(out, "cms", cms);
  append_enum_axis(out, "losses", losses);
  append_enum_axis(out, "faults", faults);
  append_uint_axis(out, "ns", ns);
  append_uint_axis(out, "value_spaces", value_spaces);
  append_uint_axis(out, "csts", csts);
  append_enum_axis(out, "topologies", topologies);
  out += "\"densities\":[";
  for (std::size_t i = 0; i < densities.size(); ++i) {
    if (i > 0) out += ",";
    numfmt::append_shortest(out, densities[i]);
  }
  out += "],";
  append_enum_axis(out, "workloads", workloads);
  append_string_axis(out, "crash_schedules", crash_schedules);
  out.back() = '}';
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

  SweepGrid grid;
  bool ok = true;
  std::string first_error;
  auto report = [&](const std::string& message) {
    if (ok) first_error = message;
    ok = false;
  };
  auto read_enum_axis = [&](const char* key, auto parse_fn, auto& axis) {
    const auto raw = flat->find(key);
    if (!raw) return;  // absent axis stays empty
    axis.clear();
    bool bad_item = false;
    if (!jsonu::for_each_item(*raw, [&](std::string_view item) {
          auto parsed = parse_fn(item);
          if (parsed) {
            axis.push_back(*parsed);
          } else {
            bad_item = true;
            report("bad value '" + std::string(item) + "' for axis '" + key +
                   "'");
          }
          return parsed.has_value();
        }) &&
        !bad_item) {
      report(std::string("axis '") + key + "' is not a JSON array");
    }
  };
  auto read_uint_axis = [&](const char* key, auto& axis) {
    using T = typename std::remove_reference_t<decltype(axis)>::value_type;
    const auto raw = flat->find(key);
    if (!raw) return;
    auto items =
        jsonu::parse_u64_array(*raw, std::numeric_limits<T>::max());
    if (!items) {
      report(std::string("axis '") + key +
             "' must be an array of unsigned integers");
      return;
    }
    axis.clear();
    for (std::uint64_t v : *items) axis.push_back(static_cast<T>(v));
  };

  static const char* const known_keys[] = {
      "grid_seed", "seeds_per_cell", "base",       "algs",
      "detectors", "policies",       "cms",        "losses",
      "faults",    "ns",             "value_spaces", "csts",
      "topologies", "densities",     "workloads",  "crash_schedules"};
  for (const auto& [key, value] : flat->members) {
    (void)value;
    bool known = false;
    for (const char* k : known_keys) known = known || key == k;
    // A typo'd axis name must not silently sweep nothing.
    if (!known) {
      return fail("unknown key '" + std::string(key) + "' in grid JSON");
    }
  }

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
  read_enum_axis("algs", parse_alg, grid.algs);
  read_enum_axis("detectors", parse_detector, grid.detectors);
  read_enum_axis("policies", parse_policy, grid.policies);
  read_enum_axis("cms", parse_cm, grid.cms);
  read_enum_axis("losses", parse_loss, grid.losses);
  read_enum_axis("faults", parse_fault, grid.faults);
  read_uint_axis("ns", grid.ns);
  read_uint_axis("value_spaces", grid.value_spaces);
  read_uint_axis("csts", grid.csts);
  read_enum_axis("topologies", parse_topology, grid.topologies);
  if (const auto raw = flat->find("densities")) {
    auto items = jsonu::parse_double_array(*raw);
    if (items) {
      grid.densities = *items;
    } else {
      report("axis 'densities' must be an array of numbers");
    }
  }
  read_enum_axis("workloads", parse_workload, grid.workloads);
  if (const auto raw = flat->find("crash_schedules")) {
    grid.crash_schedules.clear();  // names validated by validate()
    if (!jsonu::for_each_item(*raw, [&](std::string_view name) {
          grid.crash_schedules.emplace_back(name);
          return true;
        })) {
      report("axis 'crash_schedules' is not a JSON array");
    }
  }

  if (!ok) return fail(first_error);
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
