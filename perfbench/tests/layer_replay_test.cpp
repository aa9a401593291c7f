// The layer-by-layer traced replay must be a faithful replica of the
// program's own path: on tiny grids it reproduces run_sweep's records and
// the report bytes exactly, and the shard probe's encode/merge round trip
// reproduces the JSON report.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench_core.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/shard/shard_report.hpp"

namespace perfbench {
namespace {

using ccd::exp::RunRecord;
using ccd::exp::SweepGrid;

/// One record's reported content: its single-run cell aggregate.
std::string record_content(const SweepGrid& grid, const RunRecord& record) {
  ccd::exp::CellAggregate cell =
      ccd::exp::empty_cell_aggregate(grid, record.cell_index);
  ccd::exp::accumulate_run(cell, record);
  return ccd::exp::cell_aggregate_to_json(cell);
}

class LayerReplay : public ::testing::TestWithParam<Workload> {};

TEST_P(LayerReplay, TracedSweepReproducesRunSweepRecords) {
  for (std::uint64_t seed : {1u, 2u}) {
    const SweepGrid grid = make_grid(GetParam(), seed, Size::kTiny);
    ccd::exp::SweepOptions options;
    options.threads = 1;
    const std::vector<RunRecord> expect = ccd::exp::run_sweep(grid, options);
    Tracer tracer;
    Plan plan;
    const std::vector<RunRecord> got = traced_sweep(grid, tracer, plan);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].run_index, expect[i].run_index);
      ASSERT_EQ(got[i].cell_index, expect[i].cell_index);
      ASSERT_EQ(got[i].spec, expect[i].spec) << "run " << i;
      ASSERT_EQ(got[i].perf.engine, expect[i].perf.engine) << "run " << i;
      ASSERT_EQ(got[i].mh.error, expect[i].mh.error) << "run " << i;
      ASSERT_EQ(record_content(grid, got[i]), record_content(grid, expect[i]))
          << "run " << i;
    }
    // Every block executed inside one engine span.
    EXPECT_EQ(tracer.total_seconds("engine.lane") > 0, plan.lane_blocks > 0);
  }
}

TEST_P(LayerReplay, TracedPassWritesTheUntracedReportBytes) {
  const std::string dir = ::testing::TempDir();
  const PassResult plain = run_untraced(GetParam(), 2, Size::kTiny, dir);
  Tracer tracer;
  LayerMetrics layers;
  Artifacts artifacts;
  const PassResult traced =
      run_traced(GetParam(), 2, Size::kTiny, dir, tracer, layers, &artifacts);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(traced.error.empty()) << traced.error;
  EXPECT_EQ(traced.hashes, plain.hashes);
  EXPECT_EQ(traced.counters, plain.counters);
  EXPECT_EQ(traced.report_bytes, plain.report_bytes);
  EXPECT_GT(plain.setup_s, 0.0);
  // The pieces are the pass cut up: setup, one per run plus the drain,
  // aggregation, three reports.
  ASSERT_EQ(plain.pieces_ns.size(), plain.exec_pieces + 5);
  EXPECT_EQ(plain.exec_pieces, plain.runs + 1);
  double pieces_s = 0;
  for (std::uint64_t ns : plain.pieces_ns) pieces_s += ns * 1e-9;
  EXPECT_LE(pieces_s, plain.wall_s * 1.001);
  EXPECT_GE(pieces_s, plain.wall_s * 0.9);
  EXPECT_GE(layers["trace.span_coverage"], 0.9);
  EXPECT_LE(layers["trace.span_coverage"], 1.0);

  std::string error;
  EXPECT_TRUE(shard_probe(artifacts, tracer, layers, &error)) << error;
  EXPECT_GT(layers["shard.bytes"], 0.0);
  for (const char* suffix : {"/report.json", "/report.csv",
                             "/report.dist.json"}) {
    std::remove((dir + suffix).c_str());
  }
}

std::string workload_name(const ::testing::TestParamInfo<Workload>& param) {
  return to_string(param.param);
}

INSTANTIATE_TEST_SUITE_P(Workloads, LayerReplay,
                         ::testing::Values(Workload::kMultihopMixed,
                                           Workload::kWideGrid),
                         workload_name);

TEST(FleetSplit, MatchesTheDispatcherBatchDecay) {
  const auto split = fleet_split(100);
  std::size_t next = 0;
  for (const auto& batch : split) {
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.size(), ccd::exp::next_batch_size(100 - next, 3));
    for (std::size_t c : batch) EXPECT_EQ(c, next++);
  }
  EXPECT_EQ(next, 100u);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tracer;
  {
    Scope outer(&tracer, "outer", "a");
    Scope inner(&tracer, "inner", "b");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  const auto self = tracer.self_seconds();
  EXPECT_NEAR(self.at("a") + self.at("b"), tracer.total_seconds("outer"),
              1e-12);
  EXPECT_NE(tracer.chrome_trace_json("t").find("\"traceEvents\""),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
