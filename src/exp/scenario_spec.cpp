#include "exp/scenario_spec.hpp"

#include <algorithm>
#include <limits>

#include "util/flat_json.hpp"
#include "exp/world_factory.hpp"
#include "multihop/topology.hpp"
#include "util/bitcodec.hpp"
#include "util/numfmt.hpp"

namespace ccd::exp {

namespace {

using jsonu::FlatJson;

// Parse the raw text of a "crash_schedule" array member:
//   [{"round":3,"process":0,"point":"before-send"}, ...]
// Every failure is keyed down to the offending entry: unknown keys are
// rejected (a typo like "proces" must not silently yield process 0), and
// round/process are required.
std::optional<std::vector<CrashEvent>> parse_crash_schedule(
    std::string_view raw, std::string* error) {
  const std::size_t start = raw.find_first_not_of(" \t\n\v\f\r");
  if (start == std::string_view::npos || raw[start] != '[') {
    if (error) *error = "crash_schedule must be a JSON array";
    return std::nullopt;
  }
  std::vector<CrashEvent> events;
  std::string entry_error;
  if (jsonu::for_each_item(raw, [&](std::string_view item) {
    const std::string tag =
        "crash_schedule[" + std::to_string(events.size()) + "]";
    auto fail = [&](const std::string& message) {
      entry_error = message;
      return false;
    };
    if (!item.starts_with('{')) return fail(tag + " must be an object");
    auto flat = FlatJson::parse(item);
    if (!flat) return fail(tag + " is malformed");

    CrashEvent event;
    bool have_round = false, have_process = false;
    for (const auto& [key, value] : flat->members) {
      if (key == "round" || key == "process") {
        const auto v = jsonu::parse_u64(
            value, std::numeric_limits<std::uint32_t>::max());
        if (!v) {
          return fail("bad value '" + std::string(value) + "' for key '" +
                      std::string(key) + "' in " + tag +
                      " (expected an unsigned 32-bit integer)");
        }
        if (key == "round") {
          event.round = static_cast<Round>(*v);
          have_round = true;
        } else {
          event.process = static_cast<ProcessId>(*v);
          have_process = true;
        }
      } else if (key == "point") {
        auto point = parse_enum<CrashPoint>(value);
        if (!point) {
          return fail("bad value '" + std::string(value) +
                      "' for key 'point' in " + tag + " (expected " +
                      join_names(names_of<CrashPoint>(), " or ") + ")");
        }
        event.point = *point;
      } else {
        return fail("unknown key '" + std::string(key) + "' in " + tag +
                    " (expected round, process, point)");
      }
    }
    if (!have_round) return fail(tag + " missing key 'round'");
    if (!have_process) return fail(tag + " missing key 'process'");
    events.push_back(event);
    return true;
  })) {
    return events;
  }
  if (error) {
    *error = entry_error.empty() ? "crash_schedule array is malformed"
                                 : entry_error;
  }
  return std::nullopt;
}

/// Shared shape of the topology-cut generators: every vertex in `victims`
/// dies after its round-2 send (the same opener as source-dies -- the
/// workload has just started spreading).
std::vector<CrashEvent> kill_after_round2(
    const std::vector<std::uint32_t>& victims) {
  std::vector<CrashEvent> events;
  events.reserve(victims.size());
  for (std::uint32_t v : victims) {
    CrashEvent e;
    e.round = 2;
    e.process = v;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
  }
  return events;
}

/// The spec's JSON with `seed` in place of spec.seed: to_json() and
/// cell_key() differ only there.
void append_spec_json(std::string& out, const ScenarioSpec& spec,
                      std::uint64_t seed) {
  out += '{';
  auto str = [&](const char* key, const char* value) {
    out += '"';
    out += key;
    out += "\":\"";
    out += value;
    out += "\",";
  };
  auto key = [&](const char* name) {
    out += '"';
    out += name;
    out += "\":";
  };
  auto uint = [&](const char* name, std::uint64_t value) {
    key(name);
    numfmt::append_int(out, value);
    out += ',';
  };
  auto real = [&](const char* name, double value) {
    key(name);
    numfmt::append_shortest(out, value);
    out += ',';
  };
  str("alg", to_string(spec.alg));
  str("detector", to_string(spec.detector));
  str("policy", to_string(spec.policy));
  str("cm", to_string(spec.cm));
  str("loss", to_string(spec.loss));
  str("fault", to_string(spec.fault));
  // The schedule members are omitted when empty so pre-existing specs (and
  // their cell keys) keep their exact bytes.
  if (!spec.crash_schedule.empty()) {
    out += "\"crash_schedule\":[";
    for (const CrashEvent& e : spec.crash_schedule) {
      out += "{\"round\":";
      numfmt::append_int(out, e.round);
      out += ",\"process\":";
      numfmt::append_int(out, e.process);
      out += ",\"point\":\"";
      out += to_string(e.point);
      out += "\"},";
    }
    out.back() = ']';
    out += ',';
  }
  if (!spec.crash_schedule_name.empty()) {
    str("crash_schedule_name", spec.crash_schedule_name.c_str());
  }
  str("init", to_string(spec.init));
  str("chaos", to_string(spec.chaos));
  str("topology", to_string(spec.topology));
  str("workload", to_string(spec.workload));
  uint("n", spec.n);
  uint("num_values", spec.num_values);
  uint("cst_target", spec.cst_target);
  real("p_deliver", spec.p_deliver);
  real("spurious_p", spec.spurious_p);
  real("crash_p", spec.crash_p);
  real("density", spec.density);
  // Later-PR knobs are omitted at their defaults so pre-existing specs
  // (and their cell keys) keep their exact bytes -- the same contract as
  // the crash-schedule members above.
  if (spec.id_space != 0) uint("id_space", spec.id_space);
  if (spec.sync_rho != ScenarioSpec::kDefaultSyncRho) {
    real("sync_rho", spec.sync_rho);
  }
  if (spec.sync_round_length != ScenarioSpec::kDefaultSyncRoundLength) {
    real("sync_round_length", spec.sync_round_length);
  }
  uint("max_rounds", spec.max_rounds);
  uint("seed", seed);
  out.back() = '}';
}

}  // namespace

std::string ScenarioSpec::to_json() const {
  std::string out;
  append_spec_json(out, *this, seed);
  return out;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(std::string_view json) {
  return from_json(json, nullptr);
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(std::string_view json,
                                                    std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<ScenarioSpec> {
    if (error) *error = message;
    return std::nullopt;
  };

  auto flat = FlatJson::parse(json);
  if (!flat) return fail("not a flat JSON object");

  ScenarioSpec spec;
  bool ok = true;
  // First failure wins: report the offending key AND the rejected value so
  // a hand-written spec file is debuggable from the message alone.
  auto report = [&](const char* key, std::string_view raw,
                    const std::string& expected) {
    if (ok && error) {
      *error = "bad value '" + std::string(raw) + "' for key '" + key +
               "' (expected " + expected + ")";
    }
    ok = false;
  };
  // Every member a reader takes is marked; one left unmarked at the end is
  // an unknown key.
  std::vector<bool> consumed(flat->members.size());
  auto member = [&](const char* key) -> std::optional<std::string_view> {
    const auto i = flat->index_of(key);
    if (!i) return std::nullopt;  // absent members keep their default
    consumed[*i] = true;
    return flat->members[*i].value;
  };
  auto read = [&](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    const auto raw = member(key);
    if (!raw) return;
    if (auto v = Codec<T>::parse(*raw)) {
      field = *v;
    } else {
      report(key, *raw, Codec<T>::expected());
    }
  };

  read("alg", spec.alg);
  read("detector", spec.detector);
  read("policy", spec.policy);
  read("cm", spec.cm);
  read("loss", spec.loss);
  read("fault", spec.fault);
  if (const auto raw = member("crash_schedule")) {
    std::string schedule_error;
    auto events = parse_crash_schedule(*raw, &schedule_error);
    if (events) {
      spec.crash_schedule = std::move(*events);
    } else {
      if (ok && error) *error = schedule_error;
      ok = false;
    }
  }
  if (const auto raw = member("crash_schedule_name")) {
    // A typo'd generator name must not silently expand to an empty
    // schedule (a failure-free run masquerading as a faulted one).
    if (find_crash_schedule(*raw)) {
      spec.crash_schedule_name = std::string(*raw);
    } else {
      report("crash_schedule_name", *raw, Codec<std::string>::expected());
    }
  }
  read("init", spec.init);
  read("chaos", spec.chaos);
  read("topology", spec.topology);
  read("workload", spec.workload);
  read("n", spec.n);
  read("num_values", spec.num_values);
  read("cst_target", spec.cst_target);
  read("p_deliver", spec.p_deliver);
  read("spurious_p", spec.spurious_p);
  read("crash_p", spec.crash_p);
  read("density", spec.density);
  read("id_space", spec.id_space);
  read("sync_rho", spec.sync_rho);
  read("sync_round_length", spec.sync_round_length);
  read("max_rounds", spec.max_rounds);
  read("seed", spec.seed);

  if (!ok) return std::nullopt;
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    if (!consumed[i]) {
      return fail("unknown key '" + std::string(flat->members[i].key) +
                  "' in spec");
    }
  }
  return spec;
}

std::string ScenarioSpec::cell_key() const {
  std::string out;
  append_cell_key(out);
  return out;
}

void ScenarioSpec::append_cell_key(std::string& out) const {
  append_spec_json(out, *this, 0);
}

namespace {

// Theorem 3's worst case: the adversary lets each doomed process
// participate for one full "lead everyone to a leaf" window of the value
// BST -- ceil(lg|V|)+1 rounds -- then the process broadcasts once more and
// dies (kAfterSend, the literal Definition 11 crash).  Highest ids die
// first; process 0 is the guaranteed survivor.
std::vector<CrashEvent> leaf_then_die(const ScenarioSpec& spec) {
  std::vector<CrashEvent> events;
  if (spec.n < 2) return events;
  const Round gap = ceil_log2(std::max<std::uint64_t>(spec.num_values, 2)) + 1;
  for (std::uint32_t k = 0; k + 1 < spec.n; ++k) {
    CrashEvent e;
    e.round = (static_cast<Round>(k) + 1) * gap;
    e.process = spec.n - 1 - k;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
  }
  return events;
}

// The adversarial broadcast opener: node 0 (the flood source) speaks in
// rounds 1 and 2, then crashes after its round-2 send -- whatever it
// managed to seed must carry the workload.
std::vector<CrashEvent> source_dies(const ScenarioSpec& spec) {
  if (spec.n == 0) return {};
  return kill_after_round2({0});
}

// The partition worst case, declaratively: materialize the spec's topology
// and kill its most damaging cut vertex just as the workload starts
// spreading (round 2, after-send -- the same opener shape as source-dies).
// "Most damaging" = the articulation point whose removal minimizes the
// largest surviving component (the most balanced split), lowest id on
// ties.  Topologies without a cut vertex (ring, clique, dense rgg) expand
// to the empty, failure-free schedule.
//
// The topology is built once more here on top of run_scenario's own
// construction -- a deliberate trade: generators stay (name, spec) ->
// events with no executor coupling, and make_topology is deterministic in
// the spec, so the two materializations agree by construction.
std::vector<CrashEvent> articulation_point(const ScenarioSpec& spec) {
  if (spec.n < 3) return {};
  const Topology topo = WorldFactory::make_topology(spec);
  const std::vector<std::uint32_t> cuts = topo.articulation_points();
  if (cuts.empty()) return {};
  std::uint32_t best = cuts.front();
  std::size_t best_worst = topo.size();
  for (std::uint32_t v : cuts) {
    const std::size_t worst = topo.largest_component_without(v);
    if (worst < best_worst) {
      best_worst = worst;
      best = v;
    }
  }
  return kill_after_round2({best});
}

// Multi-kill escalation of articulation-point: EVERY cut vertex dies after
// its round-2 send, shattering the graph into its biconnected leaves
// simultaneously (a line keeps only its two endpoints).  Like the
// single-cut generator this expands to the empty schedule on 2-connected
// shapes -- min-vertex-cut is the generator that reaches those.
std::vector<CrashEvent> all_cut_vertices(const ScenarioSpec& spec) {
  if (spec.n < 3) return {};
  return kill_after_round2(
      WorldFactory::make_topology(spec).articulation_points());
}

// A minimum vertex cut of the materialized topology (size capped at 3), all
// killed after their round-2 sends.  On graphs with an articulation point
// this degenerates to the single worst cut vertex; on 2-connected graphs it
// is the size->=2 separator the articulation-point generator cannot find (a
// ring loses two nodes, a grid a small column).  Cliques have no vertex cut
// at all and stay failure-free.
std::vector<CrashEvent> min_vertex_cut(const ScenarioSpec& spec) {
  if (spec.n < 3) return {};
  return kill_after_round2(WorldFactory::make_topology(spec).min_vertex_cut());
}

constexpr CrashScheduleGenerator kGenerators[] = {
    {"leaf-then-die", leaf_then_die},
    {"source-dies", source_dies},
    {"articulation-point", articulation_point},
    {"all-cut-vertices", all_cut_vertices},
    {"min-vertex-cut", min_vertex_cut}};

}  // namespace

std::span<const CrashScheduleGenerator> crash_schedule_generators() {
  return kGenerators;
}

const CrashScheduleGenerator* find_crash_schedule(std::string_view name) {
  for (const CrashScheduleGenerator& g : kGenerators) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

std::optional<std::vector<CrashEvent>> generate_crash_schedule(
    std::string_view name, const ScenarioSpec& spec) {
  const CrashScheduleGenerator* g = find_crash_schedule(name);
  if (!g) return std::nullopt;
  return g->generate(spec);
}

std::vector<CrashEvent> resolved_crash_schedule(const ScenarioSpec& spec) {
  if (!spec.crash_schedule_name.empty()) {
    if (auto events = generate_crash_schedule(spec.crash_schedule_name, spec)) {
      return *events;
    }
    // Unknown name: rejected upstream by both ScenarioSpec::from_json and
    // SweepGrid::validate, so this is only reachable from hand-built specs.
    return {};
  }
  return spec.crash_schedule;
}

}  // namespace ccd::exp
