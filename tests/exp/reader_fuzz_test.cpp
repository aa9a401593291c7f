// Deterministic mutation fuzz over the artifact readers: FlatJson::parse,
// ShardSpec::from_json, ShardReport::from_json, CheckpointReader,
// stats_from_json, PerfSidecar::from_json,
// ScenarioSpec::from_json with a crash schedule, and the ccd_report
// inspector's dist, trace and bench readers.
//
// Each reader gets a valid artifact, every prefix of it (the torn-write
// family), and a fixed set of hash(seed, i)-driven mutants: byte flips,
// digit swaps, digit runs long enough to overflow, inserted signs, and
// duplicated keys whose value comes from another member.  The readers must
// never crash (CI runs this under ASan/UBSan), and whatever they accept
// must still be well formed: a spec's cells ascend and sit inside its
// grid, and its fingerprint is its grid's.
//
// The second half pins the strict-unsigned fixes one input at a time.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/checkpoint.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/trace_capture.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/report_inspect.hpp"
#include "util/flat_json.hpp"
#include "util/stats.hpp"

namespace ccd::exp {
namespace {

constexpr std::uint64_t kMutantsPerArtifact = 1000;

/// Two consensus and two flood cells, so both histogram statistics and
/// filled raw-sample statistics reach the readers.
SweepGrid fuzz_grid() {
  SweepGrid grid;
  grid.algs = {AlgKind::kAlg1};
  grid.ns = {3, 4};
  grid.workloads = {WorkloadKind::kConsensus, WorkloadKind::kFlood};
  grid.topologies = {TopologyKind::kLine};
  grid.base.cst_target = 3;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 5;
  return grid;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed ^ (i * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One `"key":value` member of a valid artifact, at any nesting depth.
struct Member {
  std::size_t begin = 0;  ///< the key's opening quote
  std::size_t colon = 0;
  std::size_t end = 0;    ///< one past the value
};

/// End of the value starting at `i` (valid input only).
std::size_t value_end(const std::string& text, std::size_t i) {
  if (text[i] == '"') {
    jsonu::skip_quoted(text, i);
    return i;
  }
  if (text[i] == '{' || text[i] == '[') {
    int depth = 0;
    while (i < text.size()) {
      if (text[i] == '"') {
        jsonu::skip_quoted(text, i);
        continue;
      }
      if (text[i] == '{' || text[i] == '[') ++depth;
      if ((text[i] == '}' || text[i] == ']') && --depth == 0) return i + 1;
      ++i;
    }
    return i;
  }
  while (i < text.size() && text[i] != ',' && text[i] != '}' &&
         text[i] != ']' && text[i] != '\n') {
    ++i;
  }
  return i;
}

std::vector<Member> members_of(const std::string& text) {
  std::vector<Member> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '"') continue;
    const bool key = i > 0 && (text[i - 1] == '{' || text[i - 1] == ',');
    std::size_t j = i;
    jsonu::skip_quoted(text, j);
    if (key && j < text.size() && text[j] == ':') {
      out.push_back({i, j, value_end(text, j + 1)});
    }
    i = j - 1;
  }
  return out;
}

/// The i-th mutant of `text`.
std::string mutate(const std::string& text,
                   const std::vector<Member>& members, std::uint64_t seed,
                   std::uint64_t i) {
  const std::uint64_t h = mix(seed, i);
  const std::uint64_t r = mix(h, 1);
  std::string out = text;
  std::vector<std::size_t> digits;
  for (std::size_t p = 0; p < text.size(); ++p) {
    if (text[p] >= '0' && text[p] <= '9') digits.push_back(p);
  }
  const std::size_t at = digits.empty() ? 0 : digits[r % digits.size()];
  switch (h % 5) {
    case 0:  // byte flip
      out[r % out.size()] ^= static_cast<char>(1 + (h >> 8) % 255);
      break;
    case 1:  // digit swap
      out[at] = static_cast<char>('0' + (h >> 8) % 10);
      break;
    case 2:  // digit run: pushes the number past 2^32 or 2^64
      out.insert(at, 10 + (h >> 8) % 12, out[at]);
      break;
    case 3:  // inserted sign
      out.insert(at, 1, (h >> 8) % 2 ? '-' : '+');
      break;
    default: {  // duplicated key, the duplicate (which wins) takes the
                // value of another member
      const Member& key = members[r % members.size()];
      const Member& value = members[(h >> 8) % members.size()];
      out.insert(key.end, "," + text.substr(key.begin, key.colon + 1 -
                                                           key.begin) +
                              text.substr(value.colon + 1,
                                          value.end - value.colon - 1));
      break;
    }
  }
  return out;
}

template <typename Reader>
void fuzz(const std::string& valid, std::uint64_t seed, Reader read) {
  ASSERT_TRUE(read(valid)) << "the unmutated artifact must be accepted";
  for (std::size_t len = 0; len < valid.size(); ++len) {
    read(valid.substr(0, len));
  }
  const std::vector<Member> members = members_of(valid);
  ASSERT_FALSE(members.empty());
  for (std::uint64_t i = 0; i < kMutantsPerArtifact; ++i) {
    read(mutate(valid, members, seed, i));
  }
}

void expect_well_formed(const ShardSpec& spec) {
  EXPECT_EQ(spec.grid_fingerprint, spec.grid.fingerprint());
  for (std::size_t k = 0; k < spec.cells.size(); ++k) {
    EXPECT_LT(spec.cells[k], spec.grid.num_cells());
    if (k > 0) {
      EXPECT_LT(spec.cells[k - 1], spec.cells[k]);
    }
  }
}

struct Artifacts {
  SweepGrid grid;
  ShardSpec spec;
  ShardReport report;
  obs::PerfSidecar sidecar;
};

/// A report cell whose raw-sample coverage_fraction holds samples.
const CellAggregate* flood_cell(const ShardReport& report) {
  for (const CellAggregate& cell : report.cells) {
    if (!cell.coverage_fraction.empty()) return &cell;
  }
  return nullptr;
}

const Artifacts& artifacts() {
  static const Artifacts a = [] {
    Artifacts out;
    out.grid = fuzz_grid();
    out.spec = ShardPlanner::plan(out.grid, 2)[1];
    obs::SweepPerf perf;
    ShardRunOptions options;
    options.sweep.threads = 1;
    options.sweep.perf = &perf;
    out.report = *run_shard(out.spec, options);
    out.sidecar = obs::build_perf_sidecar(out.spec.grid_fingerprint,
                                          out.spec.shard_index,
                                          out.spec.shard_count, perf);
    return out;
  }();
  return a;
}

TEST(ReaderFuzz, GridIsValidAndFillsRawStatistics) {
  const Artifacts& a = artifacts();
  EXPECT_FALSE(a.grid.validate().has_value());
  EXPECT_EQ(a.grid.num_cells(), 4u);
  EXPECT_NE(flood_cell(a.report), nullptr);
}

TEST(ReaderFuzz, ShardSpecAndFlatJson) {
  fuzz(artifacts().spec.to_json(), 1, [](const std::string& text) {
    jsonu::FlatJson::parse(text);
    auto spec = ShardSpec::from_json(text);
    if (spec) expect_well_formed(*spec);
    return spec.has_value();
  });
}

TEST(ReaderFuzz, ShardReport) {
  fuzz(artifacts().report.to_json(), 2, [](const std::string& text) {
    auto report = ShardReport::from_json(text);
    if (report) {
      expect_well_formed(report->shard);
      for (const CellAggregate& cell : report->cells) {
        EXPECT_LT(cell.cell_index, report->shard.grid.num_cells());
      }
    }
    return report.has_value();
  });
}

TEST(ReaderFuzz, CheckpointReader) {
  // One marker: every read opens a file, and the truncation family of
  // longer files is exp_checkpoint_test's.  Each text is also read in two
  // pieces split at its middle byte, which must end where one read does.
  const Artifacts& a = artifacts();
  ASSERT_NE(flood_cell(a.report), nullptr);
  const std::string valid = checkpoint_header(a.spec) + "\n" +
                            checkpoint_cell_marker(*flood_cell(a.report)) +
                            "\n";
  const std::string path = "reader_fuzz_test.ckpt";
  auto write = [&](const std::string& text, std::ios::openmode mode) {
    std::ofstream out(path, std::ios::binary | mode);
    out << text;
  };
  fuzz(valid, 3, [&](const std::string& text) {
    write(text, std::ios::trunc);
    CheckpointReader whole(a.spec, path);
    const bool ok = whole.read();
    EXPECT_EQ(ok, whole.error().empty());
    for (const auto& [c, cell] : whole.cells()) {
      EXPECT_TRUE(a.spec.owns_cell(c)) << c;
      EXPECT_EQ(cell.cell_index, c);
    }

    const std::size_t half = text.size() / 2;
    write(text.substr(0, half), std::ios::trunc);
    CheckpointReader split(a.spec, path);
    split.read();
    write(text.substr(half), std::ios::app);
    EXPECT_EQ(split.read(), ok);
    EXPECT_EQ(split.error(), whole.error());
    EXPECT_EQ(split.last_ts_ms(), whole.last_ts_ms());
    EXPECT_EQ(split.cells().size(), whole.cells().size());
    return ok;
  });
  std::remove(path.c_str());
}

TEST(ReaderFuzz, Stats) {
  const Artifacts& a = artifacts();
  // An accepted statistic re-encodes to a fixed point.
  auto read = [](const std::string& text) {
    Stats stats;
    if (!stats_from_json(text, &stats, nullptr)) return false;
    const std::string once = stats_to_json(stats);
    Stats again;
    EXPECT_TRUE(stats_from_json(once, &again, nullptr)) << once;
    EXPECT_EQ(stats_to_json(again), once);
    return true;
  };
  const CellAggregate* flood = flood_cell(a.report);
  ASSERT_NE(flood, nullptr);
  fuzz(stats_to_json(flood->rounds_executed), 4, read);
  fuzz(stats_to_json(flood->coverage_fraction), 5, read);
  // rounds_executed is empty in a flood cell; coverage_rounds holds bins.
  ASSERT_FALSE(flood->coverage_rounds.empty());
  fuzz(stats_to_json(flood->coverage_rounds), 11, read);
}

TEST(ReaderFuzz, PerfSidecar) {
  fuzz(artifacts().sidecar.to_json(), 6, [](const std::string& text) {
    return obs::PerfSidecar::from_json(text).has_value();
  });
}

TEST(ReaderFuzz, DistInspector) {
  const Artifacts& a = artifacts();
  const std::string dist = cells_to_dist_json(a.grid, a.report.cells);
  fuzz(dist, 7, [&dist](const std::string& text) {
    std::string out, error;
    bool differs = false;
    obs::diff_reports(dist, text, &out, &differs, &error);
    return obs::render_report(text, {}, &out, &error);
  });
}

/// A spec with a two-event crash schedule, the one array of objects a
/// ScenarioSpec carries.
ScenarioSpec scheduled_spec() {
  ScenarioSpec spec = fuzz_grid().spec_for_run(0);
  spec.fault = FaultKind::kScheduled;
  spec.crash_schedule = {{2, 0, CrashPoint::kBeforeSend},
                         {3, 1, CrashPoint::kAfterSend}};
  return spec;
}

TEST(ReaderFuzz, ScenarioSpecCrashSchedule) {
  const ScenarioSpec valid = scheduled_spec();
  ASSERT_EQ(ScenarioSpec::from_json(valid.to_json())->crash_schedule,
            valid.crash_schedule);
  // An accepted spec re-encodes to a fixed point.
  fuzz(valid.to_json(), 9, [](const std::string& text) {
    auto spec = ScenarioSpec::from_json(text);
    if (spec) {
      const std::string once = spec->to_json();
      auto again = ScenarioSpec::from_json(once);
      EXPECT_TRUE(again.has_value()) << once;
      if (again) {
        EXPECT_EQ(again->to_json(), once);
      }
    }
    return spec.has_value();
  });
}

TEST(ReaderFuzz, TraceInspector) {
  const SweepGrid grid = fuzz_grid();
  const std::string trace =
      traced_runs_to_json(grid, 0, rerun_cell(grid, 0));
  fuzz(trace, 10, [&trace](const std::string& text) {
    std::string out, error;
    bool differs = false;
    obs::diff_traces(text, trace, &out, &differs, &error);
    return obs::diff_traces(trace, text, &out, &differs, &error);
  });
}

TEST(ReaderFuzz, BenchDiff) {
  const std::string bench =
      "{\"format\":\"ccd-bench-v2\",\"entries\":[\n"
      " {\"name\":\"sweep.smoke.runs_per_s\",\"unit\":\"runs/s\","
      "\"median\":84574.9,\"min\":25704.6,\"max\":90692.9,\"reps\":7,"
      "\"bound\":0.90},\n"
      " {\"name\":\"lanes.mis_grid.n16.scalar\",\"unit\":"
      "\"world-rounds/s\",\"median\":1.44694e+06,\"min\":1.06775e+06,"
      "\"max\":1.6106e+06,\"reps\":7},\n"
      " {\"name\":\"dispatch.speedup\",\"unit\":\"x\",\"median\":2.72988,"
      "\"min\":2.71497,\"max\":2.73506,\"reps\":3,\"bound\":0.25}\n]}\n";
  fuzz(bench, 8, [&](const std::string& text) {
    std::string out, error;
    bool regressed = false;
    obs::diff_bench(text, bench, &out, &regressed, &error);
    return obs::diff_bench(bench, text, &out, &regressed, &error);
  });
}

// ---- strict unsigned parsing, one rejected input at a time ----------------

/// `text` with its first `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(StrictUnsigned, SpecBaseCountAbove32BitsIsRejected) {
  // The grid fingerprint is recomputed from the parsed grid, so a base
  // "n" that narrowed to the planned value would have matched it and run.
  SweepGrid grid = fuzz_grid();
  grid.ns.clear();
  grid.base.n = 4;
  const std::string spec = ShardPlanner::plan(grid, 1)[0].to_json();
  const std::string wrapped =
      replaced(spec, "\"n\":4,", "\"n\":4294967300,");
  std::string error;
  EXPECT_FALSE(ShardSpec::from_json(wrapped, &error).has_value());
  EXPECT_NE(error.find("bad value '4294967300' for key 'n'"),
            std::string::npos)
      << error;
}

TEST(StrictDouble, SpecBaseNanDeliveryProbabilityIsRejected) {
  const std::string spec = ShardPlanner::plan(fuzz_grid(), 1)[0].to_json();
  std::string error;
  EXPECT_FALSE(ShardSpec::from_json(
      replaced(spec, "\"p_deliver\":0.5", "\"p_deliver\":nan"), &error));
  EXPECT_NE(error.find("bad value 'nan' for key 'p_deliver'"),
            std::string::npos)
      << error;
}

TEST(StrictDouble, GridNanDensityAndOutOfRangeDeliveryAreRejected) {
  std::string error;
  EXPECT_FALSE(SweepGrid::from_json("{\"densities\":[2,nan]}", &error));
  EXPECT_NE(error.find("densities"), std::string::npos) << error;
  SweepGrid grid = fuzz_grid();
  grid.base.p_deliver = 7;
  ASSERT_TRUE(grid.validate().has_value());
  EXPECT_NE(grid.validate()->find("bad value '7' for key 'p_deliver'"),
            std::string::npos)
      << *grid.validate();
  grid.base.p_deliver = 1;
  EXPECT_FALSE(grid.validate().has_value());
}

TEST(StrictUnsigned, GridAxisAndSeedCountAbove32BitsAreRejected) {
  std::string error;
  EXPECT_FALSE(SweepGrid::from_json("{\"ns\":[4294967300]}", &error));
  EXPECT_NE(error.find("'ns'"), std::string::npos) << error;
  EXPECT_FALSE(SweepGrid::from_json("{\"seeds_per_cell\":4294967296}",
                                    &error));
  EXPECT_NE(error.find("seeds_per_cell"), std::string::npos) << error;
  EXPECT_FALSE(SweepGrid::from_json("{\"grid_seed\":-1}", &error));
  EXPECT_NE(error.find("grid_seed"), std::string::npos) << error;
}

TEST(StrictUnsigned, SpecShardIndexSignAndCellOverflowAreRejected) {
  const std::string spec = ShardPlanner::plan(fuzz_grid(), 2)[1].to_json();
  std::string error;
  EXPECT_FALSE(ShardSpec::from_json(
      replaced(spec, "\"shard_index\":1", "\"shard_index\":-1"), &error));
  EXPECT_NE(error.find("'shard_index'"), std::string::npos) << error;
  EXPECT_FALSE(ShardSpec::from_json(
      replaced(spec, "\"cells\":[2,", "\"cells\":[18446744073709551618,"),
      &error));
  EXPECT_NE(error.find("bad cell"), std::string::npos) << error;
}

TEST(StrictUnsigned, ReportCounterSignIsRejected) {
  const std::string report = artifacts().report.to_json();
  std::string error;
  EXPECT_FALSE(ShardReport::from_json(
      replaced(report, "\"runs\":2", "\"runs\":-2"), &error));
  EXPECT_NE(error.find("bad value '-2' for key 'runs'"), std::string::npos)
      << error;
}

TEST(StrictUnsigned, NegativeHeartbeatDoesNotWrapToTheFarFuture) {
  // A wrapped ts_ms (2^64-1) would make every later "now > last" false,
  // so the dispatcher would never steal from that batch.
  // A bad ts_ms adds no heartbeat but does not reject the line either.
  const Artifacts& a = artifacts();
  auto negative = [](std::string line) {
    return line.substr(0, line.rfind(",\"ts_ms\":")) + ",\"ts_ms\":-1}";
  };
  const std::string header = negative(checkpoint_header(a.spec));
  const std::string marker = negative(checkpoint_cell_marker(a.report.cells[0]));
  const std::string path = "reader_fuzz_test_heartbeat.ckpt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << header << "\n" << marker << "\n";
  }
  CheckpointReader reader(a.spec, path);
  ASSERT_TRUE(reader.read()) << reader.error();
  EXPECT_EQ(reader.last_ts_ms(), 0u);
  ASSERT_EQ(reader.cells().size(), 1u);
  EXPECT_EQ(reader.cells().begin()->first, a.report.cells[0].cell_index);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << checkpoint_header(a.spec) << "\n" << marker << "\n";
  }
  CheckpointReader stamped(a.spec, path);
  ASSERT_TRUE(stamped.read()) << stamped.error();
  EXPECT_EQ(stamped.cells().size(), 1u);
  EXPECT_GT(stamped.last_ts_ms(), 0u);
  EXPECT_LT(stamped.last_ts_ms(), std::uint64_t{1} << 62);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccd::exp
