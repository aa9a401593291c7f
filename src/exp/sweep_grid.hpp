// SweepGrid: a declarative cross-product of scenario axes.
//
// A grid is a base ScenarioSpec plus one vector per sweepable axis; an
// empty axis means "keep the base value".  Cells are enumerated in a fixed
// mixed-radix order, each cell is run `seeds_per_cell` times, and every
// run's seed derives deterministically from (grid_seed, run_index) -- so a
// grid is a pure function from index to execution, independent of how the
// runs are scheduled across threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "exp/scenario_spec.hpp"

namespace ccd::exp {

struct SweepGrid {
  /// Non-axis fields (init kind, chaos, probabilities, max_rounds) are
  /// taken from here for every cell.
  ScenarioSpec base;

  std::vector<AlgKind> algs;
  std::vector<DetectorKind> detectors;
  std::vector<PolicyKind> policies;
  std::vector<CmKind> cms;
  std::vector<LossKind> losses;
  std::vector<FaultKind> faults;
  std::vector<std::uint32_t> ns;
  std::vector<std::uint64_t> value_spaces;
  std::vector<Round> csts;
  std::vector<TopologyKind> topologies;
  /// RGG density axis; inert for non-rgg topology cells (the cells are
  /// still enumerated, so keep this axis short unless sweeping rgg only).
  std::vector<double> densities;
  std::vector<WorkloadKind> workloads;
  /// Named crash-schedule generators (see crash_schedule_generators()),
  /// applied to ScenarioSpec::crash_schedule_name; only cells whose fault
  /// is `scheduled` act on it (inert otherwise, like densities for non-rgg).
  std::vector<std::string> crash_schedules;

  std::uint32_t seeds_per_cell = 1;
  std::uint64_t grid_seed = 1;

  std::size_t num_cells() const;
  std::size_t num_runs() const { return num_cells() * seeds_per_cell; }

  /// The fully materialized spec for one run (run_index < num_runs()).
  ScenarioSpec spec_for_run(std::size_t run_index) const;

  /// The spec for a cell with the seed left at 0 (the cell identity).
  ScenarioSpec spec_for_cell(std::size_t cell_index) const;

  std::size_t cell_of_run(std::size_t run_index) const {
    return run_index / seeds_per_cell;
  }

  /// Deterministic per-run seed: hash(grid_seed, run_index).
  std::uint64_t seed_for_run(std::size_t run_index) const;

  /// Structural sanity: nullopt if the grid is well-formed, else a
  /// human-readable reason.  Catches the silent footguns: a `scheduled`
  /// fault cell with no schedule to run, unknown crash-schedule
  /// generator names, and a base p_deliver outside [0, 1].  (Consensus x
  /// non-singlehop topology, rejected here before the engine unification,
  /// is now a first-class cell.)
  std::optional<std::string> validate() const;

  /// Built-in grids: "smoke" (fast sanity), "default" (the broad
  /// alg x detector x cm x loss robustness product, 150 cells),
  /// "policies" (detector-behaviour ablation), "crash" (failure sweep),
  /// "multihop" (workload x topology x density x loss x n over the
  /// capture-channel engine), "mhloss" (consensus with loss/cm axes over
  /// non-clique topologies -- the unified-engine composition).
  static std::optional<SweepGrid> named(const std::string& name);
  static std::vector<std::string> grid_names();

  /// Canonical self-describing JSON: the base spec plus every axis (empty
  /// axes included), seeds_per_cell and grid_seed, in a fixed key order.
  /// from_json inverts it exactly; shard specs and shard reports embed this
  /// so a shard file is runnable and mergeable on its own.
  std::string to_json() const;
  static std::optional<SweepGrid> from_json(std::string_view json,
                                            std::string* error = nullptr);

  /// FNV-1a over the canonical JSON: the shard-compatibility fingerprint.
  /// Two shard artifacts recombine only if their fingerprints agree --
  /// any change to an axis, the base spec, the seed discipline or the
  /// serialization itself makes stale shards unmergeable by construction.
  std::uint64_t fingerprint() const;

  friend bool operator==(const SweepGrid&, const SweepGrid&) = default;
};

/// One sweep axis: where its values live in a grid and a spec, and how it
/// is spelled in grid JSON and on ccd_sweep's command line.
template <typename T>
struct Axis {
  using Value = T;
  const char* key;   ///< grid JSON key
  const char* flag;  ///< ccd_sweep flag
  const char* help;  ///< --help text; named values are listed after it
  std::vector<T> SweepGrid::*values;
  T ScenarioSpec::*field;
  /// Position in the mixed-radix cell index, 0 innermost: the on-disk
  /// cell numbering, frozen separately from the JSON order.
  unsigned digit;
};

/// The 13 axes, the one list every axis-wise operation walks: cell count
/// and enumeration, grid JSON, and ccd_sweep's axis flags and --help.
/// They come in grid-JSON order, which is the fingerprint() preimage, so
/// do not reorder them or change a digit.  The two orders differ: the
/// multihop axes took the outermost digits so that older grids keep their
/// cell numbering, and `densities` is the digit inside `topologies`.
inline constexpr auto kAxes = [] {
  using S = ScenarioSpec;
  using G = SweepGrid;
  return std::tuple{
      Axis<AlgKind>{"algs", "--algs", "", &G::algs, &S::alg, 8},
      Axis<DetectorKind>{"detectors", "--detectors", "", &G::detectors,
                         &S::detector, 7},
      Axis<PolicyKind>{"policies", "--policies", "", &G::policies,
                       &S::policy, 6},
      Axis<CmKind>{"cms", "--cms", "", &G::cms, &S::cm, 5},
      Axis<LossKind>{"losses", "--losses", "", &G::losses, &S::loss, 4},
      Axis<FaultKind>{"faults", "--faults", "", &G::faults, &S::fault, 3},
      Axis<std::uint32_t>{"ns", "--n", "process counts, e.g. 4,8,16", &G::ns,
                          &S::n, 2},
      Axis<std::uint64_t>{"value_spaces", "--values",
                          "|V| per cell, e.g. 16,256", &G::value_spaces,
                          &S::num_values, 1},
      Axis<Round>{"csts", "--csts", "CST targets, e.g. 5,20", &G::csts,
                  &S::cst_target, 0},
      Axis<TopologyKind>{"topologies", "--topologies", "", &G::topologies,
                         &S::topology, 10},
      Axis<double>{"densities", "--densities",
                   "rgg density factors (1.0 = connectivity threshold; "
                   "floor 2.0), e.g. 2,3; inert for other topologies",
                   &G::densities, &S::density, 9},
      Axis<WorkloadKind>{"workloads", "--workloads", "", &G::workloads,
                         &S::workload, 11},
      Axis<std::string>{"crash_schedules", "--crash-schedules",
                        "named crash-schedule generators for "
                        "fault=scheduled cells:",
                        &G::crash_schedules, &S::crash_schedule_name, 12}};
}();

/// Visit every axis in grid-JSON order.
template <typename Visit>
constexpr void for_each_axis(Visit&& visit) {
  std::apply([&](const auto&... axis) { (visit(axis), ...); }, kAxes);
}

/// How many axes kAxes lists; their digits are 0..kNumAxes-1.
inline constexpr std::size_t kNumAxes = std::tuple_size_v<decltype(kAxes)>;
static_assert(
    [] {
      std::uint32_t digits = 0;
      for_each_axis([&](const auto& axis) { digits |= 1u << axis.digit; });
      return digits == (1u << kNumAxes) - 1;
    }(),
    "every digit 0..kNumAxes-1 belongs to exactly one axis");

/// Append the value `item` names to the axis in `grid`; false, with
/// "bad value '<item>' for axis '<key>'" in *error, if the axis's codec
/// rejects it.  The grid reader and ccd_sweep's flags both read through
/// here.
template <typename T>
bool push_axis_value(const Axis<T>& axis, std::string_view item,
                     SweepGrid& grid, std::string* error) {
  std::optional<T> value = Codec<T>::parse(item);
  if (value) {
    (grid.*axis.values).push_back(std::move(*value));
  } else if (error) {
    *error = "bad value '" + std::string(item) + "' for axis '" + axis.key +
             "'";
  }
  return value.has_value();
}

}  // namespace ccd::exp
