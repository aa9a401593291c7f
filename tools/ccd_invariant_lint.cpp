// ccd_invariant_lint: static checker for the determinism invariants the
// whole reproduction leans on.
//
// Every guarantee this repo ships -- byte-identical reports at any thread
// count, shard or block partition, and the obs/ no-perturbation invariant
// -- rests on source-level discipline that runtime differential tests catch
// only after the fact.  This tool enforces the discipline statically, on
// every commit, with file:line keyed diagnostics:
//
//   R1.rand         rand()/srand()/std::random_device anywhere
//   R1.wall_clock   wall-clock reads (time(), system_clock, gettimeofday,
//                   ...) outside src/obs/ heartbeat code
//   R1.unordered    std::unordered_{map,set,...} in serialization/report
//                   paths (src/exp/, src/obs/, src/util/, tools/) where
//                   iteration order would leak into emitted bytes
//   R2.raw_engine   raw std:: random engines (mt19937, ...) outside
//                   src/util/ -- all streams derive from hash(seed, salt)
//   R3.layering     #include edges violating the layer DAG
//                   util -> model -> {cd,cm,fault,net,obs,sync}
//                        -> {consensus,engine,lowerbound,multihop,sim}
//                        -> exp -> {tools,tests,bench,examples};
//                   in particular obs/ can never include engine decision
//                   headers, so telemetry cannot feed back into execution
//   R3.unknown_layer a src/ subdirectory missing from the declared DAG
//   R3.dispatch     src/exp/dispatch/ including a compute-layer header
//                   (engine, sim, consensus, multihop, lowerbound); the
//                   dispatcher supervises worker PROCESSES and must never
//                   compute results in-process -- all execution reaches it
//                   through ccd_sweep workers and shard files
//   R4.float_accum  float/double `+=` folds in report/aggregation paths
//                   (order-sensitive; breaks byte-identical merges)
//
// Findings are suppressed per (rule, file) via an allowlist (default
// .ci/lint_allow.txt); every entry must carry a `# justification`, and
// entries that suppress nothing are themselves errors, so the allowlist
// can only shrink.
//
// The scanner is comments/strings/raw-strings-aware (same flat-scanner
// style as util/flat_json): forbidden tokens in comments, string literals
// or raw strings never fire.
//
// Usage: ccd_invariant_lint [--root DIR] [--allow FILE] [--report FILE]
//                           [--list-rules] [PATH...]
//   With no PATH args, scans src/, tools/ and tests/ under --root
//   (skipping tests/tools/fixtures/).  PATH args (files or directories,
//   relative to --root) restrict the scan -- used by the fixture tests.
// Exit status: 0 = clean, 1 = findings, 2 = usage / unreadable input.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Layer DAG.  Rank may include same-or-lower rank only; sim/multihop/engine
// (and consensus/lowerbound) are mutually entangled by design and share a
// rank.  obs sits low (rank 2) precisely so the engine may include it while
// it can never include the engine back.
const std::map<std::string, int> kLayerRanks = {
    {"util", 0},      {"model", 1},      {"cd", 2},       {"cm", 2},
    {"fault", 2},     {"net", 2},        {"obs", 2},      {"sync", 2},
    {"consensus", 3}, {"engine", 3},     {"lowerbound", 3},
    {"multihop", 3},  {"sim", 3},        {"exp", 4},
};
constexpr int kToolRank = 9;  // tools/tests/bench/examples: may include all

// Exact-path rank overrides for leaf headers that sit below their
// directory's layer.  model/types.hpp is the dependency-free vocabulary
// of the whole codebase (ProcessId, Value, advice enums); util/ may use
// it without that constituting a layering inversion.
const std::map<std::string, int> kHeaderRankOverrides = {
    {"model/types.hpp", 0},
};

struct Finding {
  std::string rule;  // e.g. "R1.rand"
  std::string path;  // root-relative
  std::size_t line = 0;
  std::string message;
};

struct RuleDoc {
  const char* key;
  const char* summary;
};
const RuleDoc kRuleDocs[] = {
    {"R1.rand", "rand()/srand()/std::random_device are nondeterministic"},
    {"R1.wall_clock", "wall-clock reads outside src/obs/ heartbeat code"},
    {"R1.unordered", "unordered containers in serialization/report paths"},
    {"R2.raw_engine", "raw std:: random engines outside src/util/"},
    {"R3.layering", "#include edge violates the layer DAG"},
    {"R3.unknown_layer", "src/ subdirectory missing from the layer DAG"},
    {"R3.dispatch", "src/exp/dispatch/ includes a compute-layer header"},
    {"R4.float_accum", "float/double += fold in report/aggregation path"},
    {"allowlist.stale", "allowlist entry suppressed nothing"},
    {"allowlist.missing_justification", "allowlist entry lacks '# why'"},
    {"allowlist.unknown_rule", "allowlist entry names no known rule"},
};

bool is_known_rule(const std::string& key) {
  for (const RuleDoc& d : kRuleDocs) {
    if (key == d.key) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Source scanning.

struct ScannedFile {
  std::string path;       // root-relative, '/'-separated
  std::string no_comments;  // comments blanked; strings intact
  std::string code_only;    // comments AND string/char contents blanked
};

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Blank comments (and, for `code`, string/char literal contents) with
// spaces, preserving newlines so line numbers survive.  Raw strings
// R"delim(...)delim" are honoured; so are escaped quotes.
void strip_source(const std::string& text, std::string& no_comments,
                  std::string& code) {
  no_comments.assign(text.size(), ' ');
  code.assign(text.size(), ' ');
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_end;  // )delim" terminator for the active raw string
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {  // newlines survive every state
      no_comments[i] = code[i] = '\n';
      if (st == St::kLine) st = St::kCode;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          ++i;  // consume '*' so "/*/" is not a complete comment
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(text[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          std::string delim;
          while (p < text.size() && text[p] != '(') delim += text[p++];
          raw_end = ")" + delim + "\"";
          no_comments[i] = code[i] = 'R';
          if (i + 1 < text.size()) no_comments[i + 1] = code[i + 1] = '"';
          i = p;  // at '(' (or end)
          if (i < text.size()) no_comments[i] = code[i] = '(';
          st = St::kRaw;
        } else if (c == '"') {
          no_comments[i] = code[i] = '"';
          st = St::kStr;
        } else if (c == '\'') {
          no_comments[i] = code[i] = '\'';
          st = St::kChar;
        } else {
          no_comments[i] = code[i] = c;
        }
        break;
      case St::kLine:
        break;  // stays blank
      case St::kBlock:
        if (c == '*' && next == '/') {
          ++i;
          st = St::kCode;
        }
        break;
      case St::kStr:
        no_comments[i] = c;  // keep string bytes for #include parsing
        if (c == '\\' && next != '\0') {
          if (i + 1 < text.size()) no_comments[i + 1] = next;
          ++i;
        } else if (c == '"') {
          code[i] = '"';
          st = St::kCode;
        }
        break;
      case St::kChar:
        no_comments[i] = c;
        if (c == '\\' && next != '\0') {
          if (i + 1 < text.size()) no_comments[i + 1] = next;
          ++i;
        } else if (c == '\'') {
          code[i] = '\'';
          st = St::kCode;
        }
        break;
      case St::kRaw:
        if (c == ')' && text.compare(i, raw_end.size(), raw_end) == 0) {
          const std::size_t end = i + raw_end.size() - 1;
          no_comments[end] = code[end] = '"';
          i = end;
          st = St::kCode;
        }
        break;
    }
  }
}

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<std::size_t>(it - starts.begin());
}

struct Token {
  std::string text;
  std::size_t pos = 0;
  char prev = '\0';  // previous non-space char ('\0' at start)
  char next = '\0';  // next non-space char ('\0' at end)
};

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> out;
  char prev_sig = '\0';
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (ident_char(c) && !(c >= '0' && c <= '9')) {
      Token t;
      t.pos = i;
      t.prev = prev_sig;
      while (i < code.size() && ident_char(code[i])) t.text += code[i++];
      std::size_t j = i;
      while (j < code.size() &&
             (code[j] == ' ' || code[j] == '\t' || code[j] == '\n'))
        ++j;
      t.next = j < code.size() ? code[j] : '\0';
      prev_sig = t.text.back();
      out.push_back(std::move(t));
    } else {
      if (c != ' ' && c != '\t' && c != '\n') prev_sig = c;
      // skip the rest of a numeric literal so "0x1p3" emits no ident
      if (c >= '0' && c <= '9') {
        while (i < code.size() && (ident_char(code[i]) || code[i] == '.'))
          ++i;
      } else {
        ++i;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path classification.

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Report/serialization paths: layers whose iteration/fold order reaches
// emitted bytes (reports, sidecars, CSVs, merge inputs).
bool in_report_path(const std::string& path) {
  return starts_with(path, "src/exp/") || starts_with(path, "src/obs/") ||
         starts_with(path, "src/util/") || starts_with(path, "tools/");
}

// First directory component under src/, or "" for non-src paths.
std::string src_layer_dir(const std::string& path) {
  if (!starts_with(path, "src/")) return "";
  const std::size_t end = path.find('/', 4);
  if (end == std::string::npos) return "";
  return path.substr(4, end - 4);
}

// ---------------------------------------------------------------------------
// Rules.

void emit(std::vector<Finding>& out, const char* rule,
          const ScannedFile& file, std::size_t line, std::string message) {
  out.push_back({rule, file.path, line, std::move(message)});
}

void check_tokens(const ScannedFile& file,
                  const std::vector<std::size_t>& lines,
                  std::vector<Finding>& out) {
  const std::string layer = src_layer_dir(file.path);
  const bool in_obs = layer == "obs";
  const bool in_util = layer == "util";
  static const std::set<std::string> kWallClockCalls = {
      "time",      "clock_gettime", "gettimeofday", "localtime",
      "gmtime",    "ctime",         "asctime",      "mktime"};
  static const std::set<std::string> kRandCalls = {"rand", "srand", "rand_r",
                                                   "drand48", "lrand48",
                                                   "mrand48", "random"};
  static const std::set<std::string> kRawEngines = {
      "mt19937",        "mt19937_64",      "minstd_rand",
      "minstd_rand0",   "default_random_engine",
      "ranlux24",       "ranlux24_base",   "ranlux48",
      "ranlux48_base",  "knuth_b",         "random_shuffle",
      "mersenne_twister_engine", "linear_congruential_engine",
      "subtract_with_carry_engine"};
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  for (const Token& t : tokenize(file.code_only)) {
    const std::size_t line = line_of(lines, t.pos);
    const bool member = t.prev == '.';  // obj.time(...) is not ::time
    if (t.text == "random_device") {
      emit(out, "R1.rand", file, line,
           "std::random_device is nondeterministic; seed from the grid "
           "seed via hash(seed, salt) (util/rng.hpp)");
    } else if (!member && t.next == '(' && kRandCalls.count(t.text)) {
      emit(out, "R1.rand", file, line,
           "'" + t.text + "()' is nondeterministic; all randomness must "
           "flow through ccd::Rng seeded from hash(seed, salt)");
    } else if (!in_obs && t.text == "system_clock") {
      emit(out, "R1.wall_clock", file, line,
           "std::chrono::system_clock is wall clock; reports must not "
           "depend on wall time (steady_clock for durations; wall clock "
           "only in src/obs/ heartbeats)");
    } else if (!in_obs && !member && t.next == '(' &&
               kWallClockCalls.count(t.text)) {
      emit(out, "R1.wall_clock", file, line,
           "'" + t.text + "()' reads the wall clock; permitted only in "
           "src/obs/ heartbeat code");
    } else if (kUnordered.count(t.text) && in_report_path(file.path)) {
      emit(out, "R1.unordered", file, line,
           "std::" + t.text + " in a serialization/report path: iteration "
           "order is address-dependent and would leak into emitted bytes; "
           "use std::map / sorted emission");
    } else if (!in_util && kRawEngines.count(t.text)) {
      emit(out, "R2.raw_engine", file, line,
           "raw std::" + t.text + " outside src/util/: RNG streams must "
           "derive from the hash(seed, salt) helpers (ccd::Rng, "
           "hash_mix) so every stream is reproducible from one seed");
    }
  }
}

void check_includes(const ScannedFile& file,
                    const std::vector<std::size_t>& lines,
                    std::vector<Finding>& out) {
  // Own rank: src/<dir>/ from the DAG; tools/tests/bench/examples free.
  int own_rank = kToolRank;
  const std::string layer = src_layer_dir(file.path);
  if (!layer.empty()) {
    const auto it = kLayerRanks.find(layer);
    if (it == kLayerRanks.end()) {
      emit(out, "R3.unknown_layer", file, 1,
           "src/" + layer + "/ is not in the declared layer DAG; add it "
           "to kLayerRanks in tools/ccd_invariant_lint.cpp");
      return;
    }
    own_rank = it->second;
  }

  const std::string& text = file.no_comments;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line_text = text.substr(pos, eol - pos);
    std::size_t p = line_text.find_first_not_of(" \t");
    if (p != std::string::npos && line_text[p] == '#') {
      p = line_text.find_first_not_of(" \t", p + 1);
      if (p != std::string::npos &&
          line_text.compare(p, 7, "include") == 0) {
        const std::size_t open = line_text.find('"', p + 7);
        if (open != std::string::npos) {
          const std::size_t close = line_text.find('"', open + 1);
          if (close != std::string::npos) {
            const std::string target =
                line_text.substr(open + 1, close - open - 1);
            const std::size_t slash = target.find('/');
            if (slash != std::string::npos &&
                !kHeaderRankOverrides.count(target)) {
              // Sub-layer isolation: the dispatcher is a process
              // supervisor.  Pulling a compute layer in would let it
              // execute runs in-process, bypassing the worker/shard-file
              // seam every determinism guarantee hangs on.
              static const std::set<std::string> kComputeLayers = {
                  "consensus", "engine", "lowerbound", "multihop", "sim"};
              if (starts_with(file.path, "src/exp/dispatch/") &&
                  kComputeLayers.count(target.substr(0, slash))) {
                emit(out, "R3.dispatch", file, line_of(lines, pos),
                     "include of \"" + target +
                         "\" from src/exp/dispatch/: the dispatcher "
                         "supervises worker processes and must never "
                         "compute in-process; execution reaches it only "
                         "through ccd_sweep workers and shard files");
              }
              const auto it = kLayerRanks.find(target.substr(0, slash));
              if (it != kLayerRanks.end() && it->second > own_rank) {
                emit(out, "R3.layering", file, line_of(lines, pos),
                     "include of \"" + target + "\" (layer " +
                         std::to_string(it->second) + ") from layer " +
                         std::to_string(own_rank) +
                         " violates the DAG util -> model -> "
                         "{cd,cm,fault,net,obs,sync} -> "
                         "{consensus,engine,lowerbound,multihop,sim} -> "
                         "exp -> tools" +
                         (layer == "obs" ? "; obs/ must never feed back "
                                           "into execution"
                                         : ""));
              }
            }
          }
        }
      }
    }
    pos = eol + 1;
  }
}

// R4: collect identifiers declared float/double in a file pair (foo.cpp +
// foo.hpp), then flag `ident +=` in report paths.  Member accumulations
// (`cell.x += ...`) work naturally: the token before `+=` is the member.
void collect_float_decls(const ScannedFile& file,
                         std::set<std::string>& decls) {
  const std::vector<Token> tokens = tokenize(file.code_only);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "float" && tokens[i].text != "double") continue;
    const Token& name = tokens[i + 1];
    // Next token must start immediately as an identifier (not a cast
    // `static_cast<double>(x)`, not `duration<double>`), and not be a
    // function declaration `double f(...)`.
    if (name.pos <= tokens[i].pos) continue;
    if (tokens[i].next != name.text[0]) continue;
    if (name.next == '(') continue;
    decls.insert(name.text);
  }
}

void check_float_accum(const ScannedFile& file,
                       const std::vector<std::size_t>& lines,
                       const std::set<std::string>& float_decls,
                       std::vector<Finding>& out) {
  if (!in_report_path(file.path)) return;
  const std::string& code = file.code_only;
  for (const Token& t : tokenize(code)) {
    if (t.next != '+' || !float_decls.count(t.text)) continue;
    // Confirm the operator really is `+=` (not `+` or `++`).
    std::size_t j = t.pos + t.text.size();
    while (j < code.size() &&
           (code[j] == ' ' || code[j] == '\t' || code[j] == '\n'))
      ++j;
    if (j + 1 < code.size() && code[j] == '+' && code[j + 1] == '=') {
      emit(out, "R4.float_accum", file, line_of(lines, t.pos),
           "float/double accumulation '" + t.text +
               " +=' in a report/aggregation path: the fold order reaches "
               "emitted bytes, so it must be provably deterministic -- "
               "restructure, or allowlist with a justification");
    }
  }
}

// ---------------------------------------------------------------------------
// Allowlist.

struct AllowEntry {
  std::string rule;
  std::string path;
  std::size_t line = 0;  // in the allowlist file
  bool used = false;
};

// Format, one suppression per line (requires a justification):
//   R4.float_accum src/util/stats.cpp # add() order is deterministic ...
bool load_allowlist(const std::string& text, const std::string& allow_path,
                    std::vector<AllowEntry>& entries,
                    std::vector<Finding>& out) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    AllowEntry e;
    e.line = line_number;
    std::string hash, justification;
    fields >> e.rule >> e.path >> hash;
    std::getline(fields, justification);
    const std::size_t j = justification.find_first_not_of(" \t");
    if (hash != "#" || j == std::string::npos) {
      out.push_back({"allowlist.missing_justification", allow_path,
                     line_number,
                     "entry '" + e.rule + " " + e.path +
                         "' needs a '# <why this is provably safe>' "
                         "justification"});
      continue;
    }
    if (!is_known_rule(e.rule)) {
      out.push_back({"allowlist.unknown_rule", allow_path, line_number,
                     "'" + e.rule + "' names no known rule"});
      continue;
    }
    entries.push_back(e);
  }
  return true;
}

// ---------------------------------------------------------------------------

struct Options {
  fs::path root = ".";
  std::optional<fs::path> allow_file;
  std::optional<fs::path> report_file;
  std::vector<std::string> paths;  // explicit scan roots, root-relative
};

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

// Root-relative, '/'-separated path.
std::string rel_str(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

int collect_files(const Options& opt, std::vector<std::string>& files) {
  std::vector<std::string> roots = opt.paths;
  if (roots.empty()) roots = {"src", "tools", "tests"};
  for (const std::string& r : roots) {
    const fs::path base = opt.root / r;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.push_back(rel_str(base, opt.root));
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      if (!opt.paths.empty()) {  // explicit path must exist
        std::fprintf(stderr, "ccd_invariant_lint: no such path: %s\n",
                     base.string().c_str());
        return 2;
      }
      continue;  // default roots may be absent (e.g. no tests/)
    }
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file() || !scannable(it->path())) continue;
      const std::string rel = rel_str(it->path(), opt.root);
      // Fixture trees deliberately violate every rule.
      if (rel.find("tests/tools/fixtures/") != std::string::npos) continue;
      files.push_back(rel);
    }
    if (ec) {
      std::fprintf(stderr, "ccd_invariant_lint: cannot walk %s: %s\n",
                   base.string().c_str(), ec.message().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return 0;
}

int run(const Options& opt) {
  std::vector<std::string> files;
  if (const int rc = collect_files(opt, files); rc != 0) return rc;

  std::vector<ScannedFile> scanned;
  scanned.reserve(files.size());
  for (const std::string& rel : files) {
    std::ifstream in(opt.root / rel, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "ccd_invariant_lint: cannot read %s\n",
                   rel.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ScannedFile f;
    f.path = rel;
    strip_source(buffer.str(), f.no_comments, f.code_only);
    scanned.push_back(std::move(f));
  }

  // R4 needs declarations from a file's header/impl twin.
  std::map<std::string, std::set<std::string>> float_decls_by_stem;
  for (const ScannedFile& f : scanned) {
    const std::string stem =
        f.path.substr(0, f.path.find_last_of('.'));
    collect_float_decls(f, float_decls_by_stem[stem]);
  }

  std::vector<Finding> findings;
  for (const ScannedFile& f : scanned) {
    const std::vector<std::size_t> lines = line_starts(f.code_only);
    check_tokens(f, lines, findings);
    check_includes(f, lines, findings);
    const std::string stem = f.path.substr(0, f.path.find_last_of('.'));
    check_float_accum(f, lines, float_decls_by_stem[stem], findings);
  }

  // Allowlist: suppress matching findings; stale entries are findings.
  std::vector<AllowEntry> allow;
  std::string allow_display;
  if (opt.allow_file) {
    allow_display = opt.allow_file->generic_string();
    std::ifstream in(*opt.allow_file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "ccd_invariant_lint: cannot read allowlist %s\n",
                   allow_display.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    load_allowlist(buffer.str(), allow_display, allow, findings);
  }
  std::size_t suppressed = 0;
  std::vector<Finding> active;
  for (const Finding& f : findings) {
    bool hit = false;
    for (AllowEntry& e : allow) {
      if (e.rule == f.rule && e.path == f.path) {
        e.used = true;
        hit = true;
      }
    }
    if (hit) {
      ++suppressed;
    } else {
      active.push_back(f);
    }
  }
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      active.push_back({"allowlist.stale", allow_display, e.line,
                        "entry '" + e.rule + " " + e.path +
                            "' suppresses nothing; delete it so the "
                            "allowlist only shrinks"});
    }
  }
  std::sort(active.begin(), active.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  std::string report;
  for (const Finding& f : active) {
    report += f.path + ":" + std::to_string(f.line) + ": error: [" +
              f.rule + "] " + f.message + " (allow: \"" + f.rule + " " +
              f.path + " # <why>\")\n";
  }
  report += "ccd_invariant_lint: scanned " + std::to_string(files.size()) +
            " files: " + std::to_string(active.size()) + " error(s), " +
            std::to_string(suppressed) + " suppressed by allowlist\n";
  std::fputs(report.c_str(), stdout);
  if (opt.report_file) {
    std::ofstream out(*opt.report_file, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "ccd_invariant_lint: cannot write %s\n",
                   opt.report_file->string().c_str());
      return 2;
    }
    out << report;
  }
  return active.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_allow = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "ccd_invariant_lint: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++a];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (!v) return 2;
      opt.root = v;
    } else if (arg == "--allow") {
      const char* v = value("--allow");
      if (!v) return 2;
      opt.allow_file = fs::path(v);
      have_allow = true;
    } else if (arg == "--report") {
      const char* v = value("--report");
      if (!v) return 2;
      opt.report_file = fs::path(v);
    } else if (arg == "--list-rules") {
      for (const RuleDoc& d : kRuleDocs) {
        std::printf("%-32s %s\n", d.key, d.summary);
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: ccd_invariant_lint [--root DIR] [--allow FILE] "
                   "[--report FILE] [--list-rules] [PATH...]\n");
      return 2;
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (!have_allow) {
    const fs::path dflt = opt.root / ".ci" / "lint_allow.txt";
    std::error_code ec;
    if (fs::exists(dflt, ec)) opt.allow_file = dflt;
  }
  return run(opt);
}
