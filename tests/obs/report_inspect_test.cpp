// Report inspector tests: show/diff on dist and shard artifacts, the
// trace-diff round alignment, and the bench-diff regression gate -- all on
// inline fixtures shaped exactly like the emitters' output.
#include "obs/report_inspect.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ccd::obs {
namespace {

const char kDistA[] =
    R"({"format":"ccd-dist-v1","grid_fingerprint":"00000000deadbeef",)"
    R"("grid_seed":1,"seeds_per_cell":4,"num_cells":2,"cells":[)"
    R"({"cell":0,"spec":{"alg":"alg1","n":4},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[3,1,5,2,9,1]},)"
    R"("surviving_fraction":{"raw":[1,0.75,1,1]}}},)"
    R"({"cell":1,"spec":{"alg":"alg1","n":8},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[4,4]}}}]})";

// Same grid, one bin shifted in cell 1.
const char kDistB[] =
    R"({"format":"ccd-dist-v1","grid_fingerprint":"00000000deadbeef",)"
    R"("grid_seed":1,"seeds_per_cell":4,"num_cells":2,"cells":[)"
    R"({"cell":0,"spec":{"alg":"alg1","n":4},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[3,1,5,2,9,1]},)"
    R"("surviving_fraction":{"raw":[1,0.75,1,1]}}},)"
    R"({"cell":1,"spec":{"alg":"alg1","n":8},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[4,3,6,1]}}}]})";

TEST(ReportInspect, ShowRendersDistWithExactPercentiles) {
  InspectOptions options;
  std::string out, error;
  ASSERT_TRUE(render_report(kDistA, options, &out, &error)) << error;
  // Multiset for cell 0 decision_round: {3,5,5,9}.  Linear-interp p50 = 5.
  EXPECT_NE(out.find("decision_round  n=4"), std::string::npos) << out;
  EXPECT_NE(out.find("p50=5.0000"), std::string::npos) << out;
  EXPECT_NE(out.find("min=3.0000"), std::string::npos) << out;
  EXPECT_NE(out.find("max=9.0000"), std::string::npos) << out;
  // Histogram bars for the integer metric; none for the raw fraction.
  EXPECT_NE(out.find("|#"), std::string::npos) << out;
  EXPECT_NE(out.find("surviving_fraction  n=4"), std::string::npos) << out;
}

TEST(ReportInspect, ShowFiltersByCellAndMetricAndTail) {
  InspectOptions options;
  options.only_cell = 1;
  options.only_metric = "decision_round";
  options.tail_over = 3.5;
  std::string out, error;
  ASSERT_TRUE(render_report(kDistA, options, &out, &error)) << error;
  EXPECT_EQ(out.find("cell 0"), std::string::npos) << out;
  EXPECT_NE(out.find("cell 1"), std::string::npos) << out;
  // Cell 1 is four samples of 4: everything is above 3.5.
  EXPECT_NE(out.find("tail > 3.5: 4 (100.0%)"), std::string::npos) << out;
}

TEST(ReportInspect, DiffFindsShiftedBin) {
  std::string out, error;
  bool differs = false;
  ASSERT_TRUE(diff_reports(kDistA, kDistB, &out, &differs, &error)) << error;
  EXPECT_TRUE(differs);
  // Keyed output: the changed cell/metric/bin, not a blob.
  EXPECT_NE(out.find("cell 1 decision_round."), std::string::npos) << out;
  EXPECT_NE(out.find("bin[4]: -1"), std::string::npos) << out;
  EXPECT_NE(out.find("bin[6]: +1"), std::string::npos) << out;
  // Cell 0 is identical and must not appear.
  EXPECT_EQ(out.find("cell 0"), std::string::npos) << out;
}

TEST(ReportInspect, DiffIdenticalIsClean) {
  std::string out, error;
  bool differs = true;
  ASSERT_TRUE(diff_reports(kDistA, kDistA, &out, &differs, &error)) << error;
  EXPECT_FALSE(differs);
  EXPECT_NE(out.find("identical"), std::string::npos) << out;
}

TEST(ReportInspect, ShowsShardReportV2) {
  // A v2 shard report cell (flat counters + stats objects).
  const std::string shard =
      R"({"format":"ccd-shard-report-v2","grid_fingerprint":"00000000deadbeef",)"
      R"("shard_index":0,"shard_count":2,"grid_seed":1,"seeds_per_cell":4,)"
      R"("cells":[{"cell":3,"runs":4,"solved":4,)"
      R"("decision_round":{"h":[7,4]}}]})";
  std::string out, error;
  ASSERT_TRUE(render_report(shard, {}, &out, &error)) << error;
  EXPECT_NE(out.find("cell 3"), std::string::npos) << out;
  EXPECT_NE(out.find("decision_round"), std::string::npos) << out;
  bool differs = true;
  ASSERT_TRUE(diff_reports(shard, shard, &out, &differs, &error)) << error;
  EXPECT_FALSE(differs);
}

TEST(ReportInspect, LegacyV1ShardReportRejected) {
  // Pre-v2 shard reports serialized stats as bare sample arrays; they are
  // no longer read, by format or by cell content.
  const std::string legacy =
      R"({"format":"ccd-shard-report-v1","grid_fingerprint":"00000000deadbeef",)"
      R"("cells":[{"cell":0,"runs":2,"decision_round":[6,4]}]})";
  InspectOptions options;
  std::string out, error;
  EXPECT_FALSE(render_report(legacy, options, &out, &error));
  EXPECT_NE(error.find("unrecognized artifact format 'ccd-shard-report-v1'"),
            std::string::npos)
      << error;

  std::string relabeled = legacy;
  relabeled.replace(relabeled.find("-v1"), 3, "-v2");
  error.clear();
  EXPECT_FALSE(render_report(relabeled, options, &out, &error));
  EXPECT_NE(error.find("decision_round"), std::string::npos) << error;
}

TEST(ReportInspect, RejectsMismatchedKindsAndGarbage) {
  std::string out, error;
  bool differs = false;
  EXPECT_FALSE(render_report("not json", {}, &out, &error));
  EXPECT_FALSE(error.empty());
  const std::string sidecar =
      R"({"format":"ccd-perf-sidecar-v1","grid_fingerprint":)"
      R"("00000000deadbeef","runs":1,"stats_bytes_retained":0,)"
      R"("counters":{"rounds":0,)"
      R"("messages_sent":0,"messages_delivered":0,"collisions":0,)"
      R"("crashes_before_send":0,"crashes_after_send":0,)"
      R"("cm_advice_calls":0,"cd_advice_calls":0},"shards":[],)"
      R"("cells":[{"cell":0,"runs":1,"total_ns":5,"min_ns":5,"max_ns":5,)"
      R"("p50_ns":5,"p95_ns":5}]})";
  error.clear();
  EXPECT_FALSE(diff_reports(kDistA, sidecar, &out, &differs, &error));
  EXPECT_NE(error.find("cannot diff"), std::string::npos) << error;
}

// ---- trace diff ------------------------------------------------------------

std::string trace_doc(const char* round2_cd, const char* decisions) {
  std::string out =
      R"({"format":"ccd-cell-trace-v1","cell":0,"spec":{"n":4},"runs":[)"
      R"({"run_index":0,"seed":11,"solved":true,"rounds_executed":2,"log":{)"
      R"("num_processes":4,"num_rounds":2,"views_recorded":true,)"
      R"("decisions":)";
  out += decisions;
  out += R"(,"crashes":[],"rounds":[)"
         R"({"round":1,"broadcasters":2,"receive_counts":[2,2,2,2],)"
         R"("cd":"++..","cm":"AAAA"},)";
  out += R"({"round":2,"broadcasters":1,"receive_counts":[1,1,1,1],"cd":")";
  out += round2_cd;
  out += R"(","cm":"AAAA"}]}}]})";
  return out;
}

TEST(ReportInspect, TraceDiffFindsFirstDivergentRound) {
  const std::string a =
      trace_doc("+...", R"([{"process":0,"value":3,"round":2}])");
  const std::string b =
      trace_doc(".+..", R"([{"process":0,"value":5,"round":2}])");
  std::string out, error;
  bool differs = false;
  ASSERT_TRUE(diff_traces(a, b, &out, &differs, &error)) << error;
  EXPECT_TRUE(differs);
  EXPECT_NE(out.find("first divergent round: 2"), std::string::npos) << out;
  EXPECT_NE(out.find("cd advice: +... vs .+.."), std::string::npos) << out;
  EXPECT_NE(out.find("decisions: p0=v3@r2  vs  p0=v5@r2"), std::string::npos)
      << out;

  differs = true;
  out.clear();
  ASSERT_TRUE(diff_traces(a, a, &out, &differs, &error)) << error;
  EXPECT_FALSE(differs);
  EXPECT_NE(out.find("1/1 aligned runs identical"), std::string::npos) << out;
}

// ---- bench diff ------------------------------------------------------------

/// A ccd-bench-v2 artifact with one gated ratio (the lane speedup), one
/// ungated rate, and one gated sweep rate.  `speedup` is raw JSON text so
/// tests can write non-numbers into it.
std::string bench(const std::string& speedup, const char* bound = "0.25") {
  return std::string(R"({"format":"ccd-bench-v2","entries":[)") +
         R"({"name":"lanes.mis_grid.n16.speedup","unit":"x","median":)" +
         speedup + R"(,"min":0.5,"max":3,"reps":7,"bound":)" + bound +
         "},\n" +
         R"({"name":"lanes.mis_grid.n16.scalar","unit":"world-rounds/s",)" +
         R"("median":1000,"min":900,"max":1100,"reps":7},)" + "\n" +
         R"({"name":"sweep.smoke.runs_per_s","unit":"runs/s",)" +
         R"("median":50000,"min":40000,"max":60000,"reps":7,"bound":0.90}]})";
}

/// bench-diff's verdict on baseline bench("2") against `fresh`:
/// 1 = regression, 0 = pass, 2 = rejected input (the ccd_report exits).
int gate(const std::string& fresh, std::string* out = nullptr) {
  std::string text, error;
  bool regressed = false;
  if (!diff_bench(bench("2"), fresh, &text, &regressed, &error)) return 2;
  if (out) *out = text;
  return regressed ? 1 : 0;
}

TEST(ReportInspect, BenchDiffGateFiresPastTheBaselineBound) {
  // Baseline median 2 at bound 0.25: the floor is 1.5.
  std::string out;
  EXPECT_EQ(gate(bench("1.4"), &out), 1) << out;  // 30% lower
  EXPECT_NE(out.find("lanes.mis_grid.n16.speedup: 2 -> 1.4 x (-30.0%) "
                     "[bound -25.0%]  REGRESSION"),
            std::string::npos)
      << out;
  EXPECT_EQ(gate(bench("1.6"), &out), 0) << out;  // 20% lower
  EXPECT_EQ(out.find("REGRESSION"), std::string::npos) << out;
  EXPECT_EQ(gate(bench("5"), &out), 0) << out;  // improvements never trip
}

TEST(ReportInspect, BenchDiffCountsABrokenOrMissingMedianAsARegression) {
  std::string out;
  for (const char* broken : {"nan", "inf", "-inf", "\"fast\"", "1e999"}) {
    EXPECT_EQ(gate(bench(broken), &out), 1) << broken << "\n" << out;
    EXPECT_NE(out.find("not a finite number"), std::string::npos) << out;
  }
  // An entry without a median at all.
  std::string no_median = bench("2");
  no_median.replace(no_median.find(R"("median":2,)"), 11, "");
  EXPECT_EQ(gate(no_median, &out), 1) << out;
  // A gated entry that disappeared.
  std::string gone = bench("2");
  gone.replace(gone.find("n16.speedup"), 11, "n32.speedup");
  EXPECT_EQ(gate(gone, &out), 1) << out;
  EXPECT_NE(out.find("lanes.mis_grid.n16.speedup: 2 -> missing"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("lanes.mis_grid.n32.speedup: new entry"),
            std::string::npos)
      << out;
}

TEST(ReportInspect, BenchDiffShowsUngatedEntriesWithoutGating) {
  std::string fresh = bench("2");
  fresh.replace(fresh.find(R"("median":1000)"), 13, R"("median":10)");
  std::string out;
  EXPECT_EQ(gate(fresh, &out), 0) << out;
  EXPECT_NE(out.find("lanes.mis_grid.n16.scalar: 1000 -> 10 world-rounds/s "
                     "(-99.0%) [not gated]"),
            std::string::npos)
      << out;
}

TEST(ReportInspect, BenchDiffRejectsABaselineBoundOutsideZeroToOne) {
  std::string text, error;
  bool regressed = false;
  for (const char* bound : {"0", "-0.25", "1.5", "nan", "25"}) {
    EXPECT_FALSE(diff_bench(bench("2", bound), bench("2"), &text, &regressed,
                            &error))
        << bound;
    EXPECT_NE(error.find("outside (0, 1]"), std::string::npos) << error;
  }
  EXPECT_TRUE(diff_bench(bench("2", "1"), bench("2"), &text, &regressed,
                         &error))
      << error;
  // The v1 kinds are gone.
  EXPECT_FALSE(diff_bench(R"({"format":"ccd-bench-v1","bench":"x"})",
                          bench("2"), &text, &regressed, &error));
  EXPECT_NE(error.find("ccd-bench-v2"), std::string::npos) << error;
}

}  // namespace
}  // namespace ccd::obs
