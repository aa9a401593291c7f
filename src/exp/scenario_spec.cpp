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

template <typename E>
std::optional<E> parse_enum(std::string_view s,
                            std::initializer_list<E> all) {
  for (E e : all) {
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

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
        auto point = parse_crash_point(value);
        if (!point) {
          return fail("bad value '" + std::string(value) +
                      "' for key 'point' in " + tag +
                      " (expected before-send or after-send)");
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

}  // namespace

const char* to_string(CrashPoint p) {
  switch (p) {
    case CrashPoint::kBeforeSend: return "before-send";
    case CrashPoint::kAfterSend: return "after-send";
  }
  return "?";
}

std::optional<CrashPoint> parse_crash_point(std::string_view s) {
  return parse_enum(s, {CrashPoint::kBeforeSend, CrashPoint::kAfterSend});
}

const char* to_string(AlgKind k) {
  switch (k) {
    case AlgKind::kAlg1: return "alg1";
    case AlgKind::kAlg2: return "alg2";
    case AlgKind::kAlg3: return "alg3";
    case AlgKind::kAlg4: return "alg4";
    case AlgKind::kNaive: return "naive";
  }
  return "?";
}

const char* to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kAC: return "ac";
    case DetectorKind::kMajAC: return "maj-ac";
    case DetectorKind::kHalfAC: return "half-ac";
    case DetectorKind::kZeroAC: return "zero-ac";
    case DetectorKind::kOAC: return "oac";
    case DetectorKind::kMajOAC: return "maj-oac";
    case DetectorKind::kHalfOAC: return "half-oac";
    case DetectorKind::kZeroOAC: return "zero-oac";
    case DetectorKind::kNoCd: return "nocd";
    case DetectorKind::kNoAcc: return "noacc";
  }
  return "?";
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kTruthful: return "truthful";
    case PolicyKind::kPreferNull: return "prefer-null";
    case PolicyKind::kPreferCollision: return "prefer-collision";
    case PolicyKind::kSpurious: return "spurious";
    case PolicyKind::kFlakyMajority: return "flaky-majority";
    case PolicyKind::kRandomLegal: return "random-legal";
  }
  return "?";
}

const char* to_string(CmKind k) {
  switch (k) {
    case CmKind::kNoCm: return "nocm";
    case CmKind::kWakeup: return "wakeup";
    case CmKind::kLeader: return "leader";
    case CmKind::kBackoff: return "backoff";
  }
  return "?";
}

const char* to_string(LossKind k) {
  switch (k) {
    case LossKind::kNoLoss: return "noloss";
    case LossKind::kEcf: return "ecf";
    case LossKind::kProbabilistic: return "prob";
    case LossKind::kUnrestricted: return "unrestricted";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRandomCrash: return "random-crash";
    case FaultKind::kScheduled: return "scheduled";
  }
  return "?";
}

const char* to_string(InitKind k) {
  switch (k) {
    case InitKind::kRandom: return "random";
    case InitKind::kSplit: return "split";
    case InitKind::kAllSame: return "same";
  }
  return "?";
}

const char* to_string(ChaosKind k) {
  switch (k) {
    case ChaosKind::kCalm: return "calm";
    case ChaosKind::kChaotic: return "chaotic";
  }
  return "?";
}

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kSingleHop: return "singlehop";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kRandomGeometric: return "rgg";
  }
  return "?";
}

const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kConsensus: return "consensus";
    case WorkloadKind::kFlood: return "flood";
    case WorkloadKind::kMis: return "mis";
    case WorkloadKind::kMisThenConsensus: return "mis-then-consensus";
    case WorkloadKind::kRoundSync: return "round-sync";
  }
  return "?";
}

std::optional<AlgKind> parse_alg(std::string_view s) {
  return parse_enum(s, {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                        AlgKind::kAlg4, AlgKind::kNaive});
}

std::optional<DetectorKind> parse_detector(std::string_view s) {
  return parse_enum(
      s, {DetectorKind::kAC, DetectorKind::kMajAC, DetectorKind::kHalfAC,
          DetectorKind::kZeroAC, DetectorKind::kOAC, DetectorKind::kMajOAC,
          DetectorKind::kHalfOAC, DetectorKind::kZeroOAC, DetectorKind::kNoCd,
          DetectorKind::kNoAcc});
}

std::optional<PolicyKind> parse_policy(std::string_view s) {
  return parse_enum(s, {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                        PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                        PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal});
}

std::optional<CmKind> parse_cm(std::string_view s) {
  return parse_enum(
      s, {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader, CmKind::kBackoff});
}

std::optional<LossKind> parse_loss(std::string_view s) {
  return parse_enum(s, {LossKind::kNoLoss, LossKind::kEcf,
                        LossKind::kProbabilistic, LossKind::kUnrestricted});
}

std::optional<FaultKind> parse_fault(std::string_view s) {
  return parse_enum(s, {FaultKind::kNone, FaultKind::kRandomCrash,
                        FaultKind::kScheduled});
}

std::optional<InitKind> parse_init(std::string_view s) {
  return parse_enum(s, {InitKind::kRandom, InitKind::kSplit,
                        InitKind::kAllSame});
}

std::optional<ChaosKind> parse_chaos(std::string_view s) {
  return parse_enum(s, {ChaosKind::kCalm, ChaosKind::kChaotic});
}

std::optional<TopologyKind> parse_topology(std::string_view s) {
  return parse_enum(s, {TopologyKind::kSingleHop, TopologyKind::kLine,
                        TopologyKind::kRing, TopologyKind::kGrid,
                        TopologyKind::kRandomGeometric});
}

std::optional<WorkloadKind> parse_workload(std::string_view s) {
  return parse_enum(s, {WorkloadKind::kConsensus, WorkloadKind::kFlood,
                        WorkloadKind::kMis, WorkloadKind::kMisThenConsensus,
                        WorkloadKind::kRoundSync});
}

namespace {

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
                    const char* expected) {
    if (ok && error) {
      *error = "bad value '" + std::string(raw) + "' for key '" + key +
               "' (expected " + expected + ")";
    }
    ok = false;
  };
  auto read_enum = [&](const char* key, auto parse_fn, auto& field,
                       const char* expected) {
    const auto raw = flat->find(key);
    if (!raw) return;  // absent members keep their default
    auto parsed = parse_fn(*raw);
    if (parsed) {
      field = *parsed;
    } else {
      report(key, *raw, expected);
    }
  };
  // Unsigned members narrower than 64 bits are range-checked against
  // their field: "n":4294967300 is an error, not n = 4.
  auto read_uint = [&](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    const auto raw = flat->find(key);
    if (!raw) return;
    if (auto v = jsonu::parse_u64(*raw, std::numeric_limits<T>::max())) {
      field = static_cast<T>(*v);
    } else {
      report(key, *raw, "an unsigned integer in range");
    }
  };
  auto read_double = [&](const char* key, double& field) {
    const auto raw = flat->find(key);
    if (!raw) return;
    if (auto v = jsonu::parse_double(*raw)) {
      field = *v;
    } else {
      report(key, *raw, "a finite number");
    }
  };

  read_enum("alg", parse_alg, spec.alg, "one of alg1..alg4, naive");
  read_enum("detector", parse_detector, spec.detector,
            "a Figure 1 class, nocd or noacc");
  read_enum("policy", parse_policy, spec.policy, "an advice policy");
  read_enum("cm", parse_cm, spec.cm, "nocm, wakeup, leader or backoff");
  read_enum("loss", parse_loss, spec.loss,
            "noloss, ecf, prob or unrestricted");
  read_enum("fault", parse_fault, spec.fault,
            "none, random-crash or scheduled");
  if (const auto raw = flat->find("crash_schedule")) {
    std::string schedule_error;
    auto events = parse_crash_schedule(*raw, &schedule_error);
    if (events) {
      spec.crash_schedule = std::move(*events);
    } else {
      if (ok && error) *error = schedule_error;
      ok = false;
    }
  }
  if (const auto raw = flat->find("crash_schedule_name")) {
    // A typo'd generator name must not silently expand to an empty
    // schedule (a failure-free run masquerading as a faulted one).
    const auto known = crash_schedule_names();
    if (std::find(known.begin(), known.end(), *raw) != known.end()) {
      spec.crash_schedule_name = std::string(*raw);
    } else {
      std::string expected = "a known generator:";
      for (const std::string& name : known) {
        expected += " " + name + (name == known.back() ? "" : ",");
      }
      report("crash_schedule_name", *raw, expected.c_str());
    }
  }
  read_enum("init", parse_init, spec.init, "random, split or same");
  read_enum("chaos", parse_chaos, spec.chaos, "calm or chaotic");
  read_enum("topology", parse_topology, spec.topology,
            "singlehop, line, ring, grid or rgg");
  read_enum("workload", parse_workload, spec.workload,
            "consensus, flood, mis or mis-then-consensus");
  read_uint("n", spec.n);
  read_uint("num_values", spec.num_values);
  read_uint("cst_target", spec.cst_target);
  read_double("p_deliver", spec.p_deliver);
  read_double("spurious_p", spec.spurious_p);
  read_double("crash_p", spec.crash_p);
  read_double("density", spec.density);
  read_uint("id_space", spec.id_space);
  read_double("sync_rho", spec.sync_rho);
  read_double("sync_round_length", spec.sync_round_length);
  read_uint("max_rounds", spec.max_rounds);
  read_uint("seed", spec.seed);

  if (!ok) return std::nullopt;
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

std::vector<std::string> crash_schedule_names() {
  return {"leaf-then-die", "source-dies", "articulation-point",
          "all-cut-vertices", "min-vertex-cut"};
}

std::optional<std::vector<CrashEvent>> generate_crash_schedule(
    const std::string& name, const ScenarioSpec& spec) {
  if (name == "leaf-then-die") {
    // Theorem 3's worst case: the adversary lets each doomed process
    // participate for one full "lead everyone to a leaf" window of the
    // value BST -- ceil(lg|V|)+1 rounds -- then the process broadcasts
    // once more and dies (kAfterSend, the literal Definition 11 crash).
    // Highest ids die first; process 0 is the guaranteed survivor.
    std::vector<CrashEvent> events;
    if (spec.n < 2) return events;
    const Round gap =
        ceil_log2(std::max<std::uint64_t>(spec.num_values, 2)) + 1;
    for (std::uint32_t k = 0; k + 1 < spec.n; ++k) {
      CrashEvent e;
      e.round = (static_cast<Round>(k) + 1) * gap;
      e.process = spec.n - 1 - k;
      e.point = CrashPoint::kAfterSend;
      events.push_back(e);
    }
    return events;
  }
  if (name == "source-dies") {
    // The adversarial broadcast opener: node 0 (the flood source) speaks
    // in rounds 1 and 2, then crashes after its round-2 send -- whatever
    // it managed to seed must carry the workload.
    std::vector<CrashEvent> events;
    if (spec.n == 0) return events;
    CrashEvent e;
    e.round = 2;
    e.process = 0;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
    return events;
  }
  if (name == "articulation-point") {
    // The partition worst case, declaratively: materialize the spec's
    // topology and kill its most damaging cut vertex just as the workload
    // starts spreading (round 2, after-send -- the same opener shape as
    // source-dies).  "Most damaging" = the articulation point whose removal
    // minimizes the largest surviving component (the most balanced split),
    // lowest id on ties.  Topologies without a cut vertex (ring, clique,
    // dense rgg) expand to the empty, failure-free schedule.
    //
    // The topology is built once more here on top of run_scenario's own
    // construction -- a deliberate trade: generators stay (name, spec) ->
    // events with no executor coupling, and make_topology is deterministic
    // in the spec, so the two materializations agree by construction.
    std::vector<CrashEvent> events;
    if (spec.n < 3) return events;
    const Topology topo = WorldFactory::make_topology(spec);
    const std::vector<std::uint32_t> cuts = topo.articulation_points();
    if (cuts.empty()) return events;
    std::uint32_t best = cuts.front();
    std::size_t best_worst = topo.size();
    for (std::uint32_t v : cuts) {
      const std::size_t worst = topo.largest_component_without(v);
      if (worst < best_worst) {
        best_worst = worst;
        best = v;
      }
    }
    CrashEvent e;
    e.round = 2;
    e.process = best;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
    return events;
  }
  if (name == "all-cut-vertices") {
    // Multi-kill escalation of articulation-point: EVERY cut vertex dies
    // after its round-2 send, shattering the graph into its biconnected
    // leaves simultaneously (a line keeps only its two endpoints).  Like
    // the single-cut generator this expands to the empty schedule on
    // 2-connected shapes -- min-vertex-cut is the generator that reaches
    // those.
    if (spec.n < 3) return std::vector<CrashEvent>{};
    const Topology topo = WorldFactory::make_topology(spec);
    return kill_after_round2(topo.articulation_points());
  }
  if (name == "min-vertex-cut") {
    // A minimum vertex cut of the materialized topology (size capped at 3),
    // all killed after their round-2 sends.  On graphs with an articulation
    // point this degenerates to the single worst cut vertex; on 2-connected
    // graphs it is the size->=2 separator the articulation-point generator
    // cannot find (a ring loses two nodes, a grid a small column).  Cliques
    // have no vertex cut at all and stay failure-free.
    if (spec.n < 3) return std::vector<CrashEvent>{};
    const Topology topo = WorldFactory::make_topology(spec);
    return kill_after_round2(topo.min_vertex_cut());
  }
  return std::nullopt;
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
