// ccd_report: inspect and compare the sweep pipeline's JSON artifacts.
//
// Subcommands:
//   show FILE         per-cell distribution view (histogram bars, exact
//                     p50/p90/p99/p99.9, tail mass) of a report, shard
//                     report, ccd-dist-v1 file, or perf sidecar
//   diff A B          cell-by-cell keyed diff of two report artifacts;
//                     exits 1 when they differ
//   trace-diff A B    align two `ccd_sweep --rerun-cell` dumps round by
//                     round; prints the first divergent round and the
//                     view/advice/decision deltas; exits 1 on divergence
//   bench-diff OLD NEW
//                     compare two ccd-bench-v2 artifacts (ccd_bench
//                     output); exits 1 when a gated median fell past the
//                     bound OLD records for it -- the CI bench regression
//                     gate
//
// Everything here reads serialized artifacts only: no engine, no grid
// execution, so inspection can never perturb what it inspects.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report_inspect.hpp"
#include "util/flat_json.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_report COMMAND [options] FILE...

commands:
  show FILE             render per-cell distributions of a report artifact
                        (aggregate report, ccd-shard-report-v2,
                        ccd-dist-v1, or perf sidecar)
    --cell N            show only cell N
    --metric NAME       show only this metric
    --tail-over X       also report the count/mass of samples > X
    --width W           histogram bar width in characters (default 40)
    --max-bins B        coalesce histograms wider than B rows (default 24)
  diff A B              keyed cell-by-cell diff; exit 1 when they differ
  trace-diff A B        round-by-round diff of two --rerun-cell trace
                        dumps; exit 1 on divergence
  bench-diff OLD NEW    compare ccd-bench-v2 artifacts (ccd_bench --out);
                        exit 1 when a gated median in NEW is missing, not
                        finite, or below OLD's median by more than the
                        bound OLD records for that entry

exit codes: 0 ok / no difference, 1 difference or regression, 2 bad input.
)");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "ccd_report: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    usage(stdout);
    return 0;
  }

  ccd::obs::InspectOptions options;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_report: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--cell") {
      const char* v = need_value("--cell");
      options.only_cell = v ? ccd::jsonu::parse_u64(v) : std::nullopt;
      if (!options.only_cell) return fail("bad --cell value");
    } else if (flag == "--metric") {
      const char* v = need_value("--metric");
      if (!v) return 2;
      options.only_metric = v;
    } else if (flag == "--tail-over") {
      const char* v = need_value("--tail-over");
      options.tail_over = v ? ccd::jsonu::parse_double(v) : std::nullopt;
      if (!options.tail_over) return fail("bad --tail-over value");
    } else if (flag == "--width") {
      const char* v = need_value("--width");
      const auto width = v ? ccd::jsonu::parse_u64(v, 4096) : std::nullopt;
      if (!width || *width == 0) return fail("bad --width value");
      options.bar_width = static_cast<int>(*width);
    } else if (flag == "--max-bins") {
      const char* v = need_value("--max-bins");
      const auto bins = v ? ccd::jsonu::parse_u64(v, 4096) : std::nullopt;
      if (!bins || *bins == 0) return fail("bad --max-bins value");
      options.max_bins = static_cast<int>(*bins);
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "ccd_report: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    } else {
      files.push_back(flag);
    }
  }

  auto load = [&](const std::string& path, std::string* text) -> bool {
    if (!read_file(path, *text)) {
      std::fprintf(stderr, "ccd_report: cannot read %s\n", path.c_str());
      return false;
    }
    return true;
  };

  std::string error;
  if (command == "show") {
    if (files.size() != 1) return fail("show needs exactly one FILE");
    std::string text, out;
    if (!load(files[0], &text)) return 2;
    if (!ccd::obs::render_report(text, options, &out, &error)) {
      return fail(files[0] + ": " + error);
    }
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  if (command == "diff" || command == "trace-diff") {
    if (files.size() != 2) {
      return fail(command + " needs exactly two files");
    }
    std::string a, b, out;
    if (!load(files[0], &a) || !load(files[1], &b)) return 2;
    bool differs = false;
    const bool ok =
        command == "diff"
            ? ccd::obs::diff_reports(a, b, &out, &differs, &error)
            : ccd::obs::diff_traces(a, b, &out, &differs, &error);
    if (!ok) return fail(error);
    std::fputs(out.c_str(), stdout);
    return differs ? 1 : 0;
  }
  if (command == "bench-diff") {
    if (files.size() != 2) {
      return fail("bench-diff needs exactly two files (OLD NEW)");
    }
    std::string old_text, new_text, out;
    if (!load(files[0], &old_text) || !load(files[1], &new_text)) return 2;
    bool regressed = false;
    if (!ccd::obs::diff_bench(old_text, new_text, &out, &regressed,
                              &error)) {
      return fail(error);
    }
    std::fputs(out.c_str(), stdout);
    if (regressed) {
      std::fprintf(stderr, "ccd_report: bench regression past a bound\n");
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "ccd_report: unknown command '%s'\n", command.c_str());
  usage(stderr);
  return 2;
}
