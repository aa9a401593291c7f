// Perf sidecar tests: build from spans, JSON round-trip, K-shard merge
// (counter sums exact, disjoint cell union, fingerprint guard), frozen
// sidecar bytes and inspector text, the keyed error of each malformed
// member, and the Chrome trace export's required keys.
#include <gtest/gtest.h>

#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/report_inspect.hpp"

namespace ccd::obs {
namespace {

SweepPerf sample_perf(std::uint32_t workers, std::uint64_t first_cell) {
  SweepPerf perf;
  perf.wall_ns = 5000;
  perf.threads = workers;
  perf.drain_ns = 700;
  perf.counters.rounds = 40;
  perf.counters.messages_sent = 10;
  perf.counters.collisions = 3;
  // Two cells x two seeds, alternating workers.
  for (std::uint64_t s = 0; s < 4; ++s) {
    RunSpan span;
    span.run_index = first_cell * 2 + s;
    span.cell_index = first_cell + s / 2;
    span.worker = static_cast<std::uint32_t>(s % workers);
    span.start_ns = s * 1000;
    span.end_ns = s * 1000 + 800 + 10 * s;
    perf.spans.push_back(span);
  }
  perf.runs = perf.spans.size();
  return perf;
}

TEST(PerfSidecarTest, BuildGroupsSpansByCellAndWorker) {
  const SweepPerf perf = sample_perf(2, 0);
  const PerfSidecar sidecar = build_perf_sidecar(0xabcdef, 0, 1, perf);
  EXPECT_EQ(sidecar.runs, 4u);
  EXPECT_EQ(sidecar.counters, perf.counters);
  ASSERT_EQ(sidecar.shards.size(), 1u);
  ASSERT_EQ(sidecar.shards[0].workers.size(), 2u);
  EXPECT_EQ(sidecar.shards[0].workers[0].runs, 2u);
  EXPECT_EQ(sidecar.shards[0].workers[1].runs, 2u);
  EXPECT_EQ(sidecar.shards[0].drain_ns, 700u);
  ASSERT_EQ(sidecar.cells.size(), 2u);
  EXPECT_EQ(sidecar.cells[0].cell_index, 0u);
  EXPECT_EQ(sidecar.cells[0].runs, 2u);
  EXPECT_LE(sidecar.cells[0].min_ns, sidecar.cells[0].p50_ns);
  EXPECT_LE(sidecar.cells[0].p50_ns, sidecar.cells[0].p95_ns);
  EXPECT_LE(sidecar.cells[0].p95_ns, sidecar.cells[0].max_ns);
}

TEST(PerfSidecarTest, JsonRoundTripIsLossless) {
  const PerfSidecar sidecar =
      build_perf_sidecar(0x123456789abcdef0ull, 2, 4, sample_perf(2, 6));
  std::string error;
  auto parsed = PerfSidecar::from_json(sidecar.to_json(), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->grid_fingerprint, sidecar.grid_fingerprint);
  EXPECT_EQ(parsed->runs, sidecar.runs);
  EXPECT_EQ(parsed->counters, sidecar.counters);
  ASSERT_EQ(parsed->shards.size(), 1u);
  EXPECT_EQ(parsed->shards[0].shard_index, 2u);
  EXPECT_EQ(parsed->shards[0].shard_count, 4u);
  EXPECT_EQ(parsed->shards[0].wall_ns, sidecar.shards[0].wall_ns);
  ASSERT_EQ(parsed->shards[0].workers.size(),
            sidecar.shards[0].workers.size());
  EXPECT_EQ(parsed->shards[0].workers[1].busy_ns,
            sidecar.shards[0].workers[1].busy_ns);
  ASSERT_EQ(parsed->cells.size(), sidecar.cells.size());
  for (std::size_t i = 0; i < sidecar.cells.size(); ++i) {
    EXPECT_EQ(parsed->cells[i].cell_index, sidecar.cells[i].cell_index);
    EXPECT_EQ(parsed->cells[i].total_ns, sidecar.cells[i].total_ns);
    EXPECT_EQ(parsed->cells[i].p95_ns, sidecar.cells[i].p95_ns);
  }
  // Re-serialization is byte-stable (merge tooling relies on it).
  EXPECT_EQ(parsed->to_json(), sidecar.to_json());
}

TEST(PerfSidecarTest, FromJsonRejectsGarbageWithKeyedErrors) {
  std::string error;
  EXPECT_FALSE(PerfSidecar::from_json("not json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      PerfSidecar::from_json("{\"format\":\"ccd-perf-sidecar-v9\"}", &error));
  EXPECT_NE(error.find("format"), std::string::npos);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every member distinct, so a swapped or dropped key changes the bytes;
/// the extremes of both member widths included.
PerfSidecar fixed_sidecar() {
  PerfSidecar s;
  s.grid_fingerprint = 0x0123456789abcdefull;
  s.runs = 1001;
  s.stats_bytes_retained = 1002;
  s.counters.rounds = 11;
  s.counters.messages_sent = 12;
  s.counters.messages_delivered = 13;
  s.counters.collisions = 14;
  s.counters.crashes_before_send = 15;
  s.counters.crashes_after_send = 16;
  s.counters.cm_advice_calls = 17;
  s.counters.cd_advice_calls = 18446744073709551615ull;
  s.shards.push_back({0, 2, 2001, 2002, 2, 2003,
                      {{0, 2101, 2102}, {4294967295u, 2111, 2112}}});
  s.shards.push_back({1, 2, 2201, 2202, 1, 2203, {{0, 2301, 2302}}});
  s.cells.push_back({0, 3, 3001, 3002, 3003, 3004, 3005});
  s.cells.push_back({5, 4, 18446744073709551615ull, 3102, 3103, 3104, 3105});
  PerfDispatch d{2, 4001, 4002, 4003, 4004, 4005, 4006, {}};
  d.slots.push_back({0, 4101, 4102, 4103, 4104, 4105});
  d.slots.push_back({1, 4201, 4202, 4203, 4204, 4205});
  s.dispatch = d;
  return s;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(PerfSidecarTest, BytesAndInspectorTextAreFrozen) {
  const std::string json = fixed_sidecar().to_json();
  EXPECT_EQ(fnv1a(json), 0x0279c42c5dc478e1ull) << json;
  auto parsed = PerfSidecar::from_json(json);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->to_json(), json);
  std::string out, error;
  ASSERT_TRUE(render_report(json, {}, &out, &error)) << error;
  EXPECT_EQ(fnv1a(out), 0xc969106414ac14d2ull) << out;
}

TEST(PerfSidecarTest, EveryMalformedMemberHasItsKeyedError) {
  const std::string valid = fixed_sidecar().to_json();
  struct Case {
    std::string from, to, error;
  };
  const Case cases[] = {
      // top level
      {"\"runs\":1001,", "", "perf sidecar missing key 'runs'"},
      {"\"runs\":1001", "\"runs\":-1",
       "bad value '-1' for key 'runs' in perf sidecar"},
      {"\"stats_bytes_retained\":1002", "\"stats_bytes_retained\":1e3",
       "bad value '1e3' for key 'stats_bytes_retained' in perf sidecar"},
      // a misspelled key once read as 0 retained bytes
      {"\"stats_bytes_retained\":1002", "\"stats_bytes_retaind\":5",
       "perf sidecar missing key 'stats_bytes_retained'"},
      {"\"grid_fingerprint\":\"0123456789abcdef\",", "",
       "missing key 'grid_fingerprint'"},
      {"0123456789abcdef", "0123", "bad value '0123' for key "
                                   "'grid_fingerprint'"},
      // counters
      {"\"collisions\":14,", "", "'counters' missing key 'collisions'"},
      {"\"collisions\":14", "\"collisions\":1.5",
       "bad value '1.5' for key 'collisions' in 'counters'"},
      {"\"cd_advice_calls\":18446744073709551615",
       "\"cd_advice_calls\":18446744073709551616",
       "bad value '18446744073709551616' for key 'cd_advice_calls' in "
       "'counters'"},
      // shards[i]
      {"\"drain_ns\":2202,", "", "shards[1] missing key 'drain_ns'"},
      {"\"threads\":1,", "\"threads\":4294967296,",
       "bad value '4294967296' for key 'threads' in shards[1]"},
      {"\"shard_index\":0,", "\"shard_index\":\"x\",",
       "bad value 'x' for key 'shard_index' in shards[0]"},
      // shards[i].workers[j]
      {"\"busy_ns\":2111,", "", "shards[0].workers[1] missing key 'busy_ns'"},
      {"\"worker\":4294967295", "\"worker\":4294967296",
       "bad value '4294967296' for key 'worker' in shards[0].workers[1]"},
      {"\"runs\":2302", "\"runs\":-2302",
       "bad value '-2302' for key 'runs' in shards[1].workers[0]"},
      // cells[i]
      {",\"p95_ns\":3105", "", "cells[1] missing key 'p95_ns'"},
      {"\"cell\":5,", "\"cell\":+5,",
       "bad value '+5' for key 'cell' in cells[1]"},
      // dispatch
      {"\"steals\":4002,", "", "'dispatch' missing key 'steals'"},
      {"\"wall_ns\":4006", "\"wall_ns\":\"\"",
       "bad value '' for key 'wall_ns' in 'dispatch'"},
      // dispatch.slots[i]
      {",\"restarts\":4205", "", "dispatch.slots[1] missing key 'restarts'"},
      {"\"busy_permille\":4104", "\"busy_permille\":-4104",
       "bad value '-4104' for key 'busy_permille' in dispatch.slots[0]"},
      // a 32-bit member: the reader once truncated this slot id to 0
      {"\"slot\":1,", "\"slot\":4294967296,",
       "bad value '4294967296' for key 'slot' in dispatch.slots[1]"},
      // structure: a member that is not the kind it must be
      {"\"counters\":{", "\"counters\":\"x\",\"y\":{",
       "'counters' is not a flat JSON object"},
      {"\"shards\":[", "\"shards\":\"x\",\"y\":[",
       "'shards' is not a JSON array"},
      {"\"workers\":[{\"worker\":0,\"busy_ns\":2301",
       "\"workers\":[\"x\",{\"worker\":0,\"busy_ns\":2301",
       "shards[1].workers[0] is not a flat JSON object"},
      {"],\"cells\":[", "],\"cellz\":[", "missing key 'cells'"},
      {"\"dispatch\":{", "\"dispatch\":\"x\",\"y\":{",
       "'dispatch' is not a flat JSON object"},
      {"\"slots\":[", "\"slotz\":[", "'dispatch' missing key 'slots'"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(PerfSidecar::from_json(replaced(valid, c.from, c.to),
                                        &error))
        << c.from << " -> " << c.to;
    EXPECT_EQ(error, c.error) << c.from << " -> " << c.to;
  }
}

TEST(PerfSidecarTest, MergeSumsCountersAndUnionsCells) {
  const PerfSidecar a = build_perf_sidecar(0xfeed, 0, 2, sample_perf(2, 0));
  const PerfSidecar b = build_perf_sidecar(0xfeed, 1, 2, sample_perf(1, 2));
  std::string error;
  auto merged = merge_perf_sidecars({b, a}, &error);  // order-insensitive
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->runs, a.runs + b.runs);
  EXPECT_EQ(merged->counters.rounds,
            a.counters.rounds + b.counters.rounds);
  EXPECT_EQ(merged->counters.collisions,
            a.counters.collisions + b.counters.collisions);
  ASSERT_EQ(merged->shards.size(), 2u);
  EXPECT_EQ(merged->shards[0].shard_index, 0u);  // sorted by identity
  EXPECT_EQ(merged->shards[1].shard_index, 1u);
  ASSERT_EQ(merged->cells.size(), 4u);
  EXPECT_EQ(merged->cells[0].cell_index, 0u);
  EXPECT_EQ(merged->cells[3].cell_index, 3u);
}

TEST(PerfSidecarTest, MergeRejectsFingerprintMismatch) {
  const PerfSidecar a = build_perf_sidecar(0x1, 0, 2, sample_perf(1, 0));
  const PerfSidecar b = build_perf_sidecar(0x2, 1, 2, sample_perf(1, 2));
  std::string error;
  EXPECT_FALSE(merge_perf_sidecars({a, b}, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos);
}

TEST(PerfSidecarTest, MergeRejectsDuplicateCellOwnership) {
  const PerfSidecar a = build_perf_sidecar(0x1, 0, 2, sample_perf(1, 0));
  const PerfSidecar b = build_perf_sidecar(0x1, 1, 2, sample_perf(1, 0));
  std::string error;
  EXPECT_FALSE(merge_perf_sidecars({a, b}, &error));
  EXPECT_NE(error.find("cell"), std::string::npos);
}

TEST(ChromeTraceTest, EmitsMetadataAndCompleteEvents) {
  const SweepPerf perf = sample_perf(2, 0);
  const std::string json = sweep_trace_json(perf, 3, 2);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cell 0 seed 0\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

}  // namespace
}  // namespace ccd::obs
