#include "linter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "frontend.h"
#include "rules_flow.h"

namespace clouddb::lint {
namespace {

namespace fs = std::filesystem;

constexpr char kRuleWallclock[] = "clouddb-wallclock";
constexpr char kRuleRandom[] = "clouddb-random";
constexpr char kRuleThread[] = "clouddb-thread";
constexpr char kRuleLayering[] = "clouddb-layering";
constexpr char kRuleCycle[] = "clouddb-include-cycle";
constexpr char kRuleMetricName[] = "clouddb-metric-name";
constexpr char kRuleApplyNoparse[] = "clouddb-apply-noparse";

/// Module layer ranks. An include edge is legal only if it points at a
/// strictly lower rank (or stays inside the module). `db` and `net` are
/// peers and may not include each other; `fault` and `harness` sit at the
/// top alongside each other. Mirrors the DAG in DESIGN.md — keep in sync.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},     {"metrics", 1}, {"sim", 1},   {"db", 2},
      {"net", 2},        {"cloud", 3},   {"repl", 4},  {"client", 5},
      {"control", 6},    {"cloudstone", 6}, {"fault", 7}, {"harness", 7},
  };
  return kRanks;
}

struct TokenRule {
  std::string_view token;
  const char* rule;
  const char* hint;
  bool call_only = false;  // only when directly followed by '(' and not a
                           // member call (not preceded by '.' or '->')
  bool prefix = false;     // match any identifier starting with `token`
};

const std::vector<TokenRule>& BannedTokens() {
  static const std::vector<TokenRule> kRules = {
      // --- clouddb-wallclock: reading real time breaks seeded replay.
      {"system_clock", kRuleWallclock, "is a wall-clock source"},
      {"steady_clock", kRuleWallclock, "is a wall-clock source"},
      {"high_resolution_clock", kRuleWallclock, "is a wall-clock source"},
      {"file_clock", kRuleWallclock, "is a wall-clock source"},
      {"utc_clock", kRuleWallclock, "is a wall-clock source"},
      {"tai_clock", kRuleWallclock, "is a wall-clock source"},
      {"gps_clock", kRuleWallclock, "is a wall-clock source"},
      {"gettimeofday", kRuleWallclock, "reads the wall clock"},
      {"clock_gettime", kRuleWallclock, "reads the wall clock"},
      {"timespec_get", kRuleWallclock, "reads the wall clock"},
      {"localtime", kRuleWallclock, "reads the wall clock"},
      {"localtime_r", kRuleWallclock, "reads the wall clock"},
      {"gmtime", kRuleWallclock, "reads the wall clock"},
      {"gmtime_r", kRuleWallclock, "reads the wall clock"},
      {"mktime", kRuleWallclock, "reads the wall clock"},
      {"time", kRuleWallclock, "reads the wall clock", /*call_only=*/true},
      // --- clouddb-random: only common/rng may own randomness.
      {"random_device", kRuleRandom, "is a nondeterministic entropy source"},
      {"rand", kRuleRandom, "uses hidden global RNG state", true},
      {"srand", kRuleRandom, "uses hidden global RNG state", true},
      {"rand_r", kRuleRandom, "is a platform RNG", true},
      {"random", kRuleRandom, "uses hidden global RNG state", true},
      {"drand48", kRuleRandom, "is a platform RNG"},
      {"erand48", kRuleRandom, "is a platform RNG"},
      {"lrand48", kRuleRandom, "is a platform RNG"},
      {"nrand48", kRuleRandom, "is a platform RNG"},
      {"mrand48", kRuleRandom, "is a platform RNG"},
      {"jrand48", kRuleRandom, "is a platform RNG"},
      {"random_shuffle", kRuleRandom, "uses unspecified randomness"},
      {"mt19937", kRuleRandom, "is a std random engine"},
      {"mt19937_64", kRuleRandom, "is a std random engine"},
      {"minstd_rand", kRuleRandom, "is a std random engine"},
      {"minstd_rand0", kRuleRandom, "is a std random engine"},
      {"default_random_engine", kRuleRandom, "is a std random engine"},
      {"knuth_b", kRuleRandom, "is a std random engine"},
      {"ranlux24", kRuleRandom, "is a std random engine"},
      {"ranlux24_base", kRuleRandom, "is a std random engine"},
      {"ranlux48", kRuleRandom, "is a std random engine"},
      {"ranlux48_base", kRuleRandom, "is a std random engine"},
      // --- clouddb-thread: the simulator is single-threaded by design.
      {"thread", kRuleThread, "is a real-thread primitive"},
      {"jthread", kRuleThread, "is a real-thread primitive"},
      {"this_thread", kRuleThread, "is a real-thread primitive"},
      {"pthread_", kRuleThread, "is a real-thread primitive", false, true},
      {"mutex", kRuleThread, "is a real-thread primitive"},
      {"shared_mutex", kRuleThread, "is a real-thread primitive"},
      {"recursive_mutex", kRuleThread, "is a real-thread primitive"},
      {"timed_mutex", kRuleThread, "is a real-thread primitive"},
      {"recursive_timed_mutex", kRuleThread, "is a real-thread primitive"},
      {"condition_variable", kRuleThread, "is a real-thread primitive"},
      {"condition_variable_any", kRuleThread, "is a real-thread primitive"},
      {"lock_guard", kRuleThread, "is a real-thread primitive"},
      {"unique_lock", kRuleThread, "is a real-thread primitive"},
      {"scoped_lock", kRuleThread, "is a real-thread primitive"},
      {"shared_lock", kRuleThread, "is a real-thread primitive"},
      {"atomic", kRuleThread, "implies real threads"},
      {"atomic_", kRuleThread, "implies real threads", false, true},
      {"async", kRuleThread, "launches real threads", true},
      {"sleep_for", kRuleThread, "blocks a real thread"},
      {"sleep_until", kRuleThread, "blocks a real thread"},
      {"usleep", kRuleThread, "blocks a real thread"},
      {"nanosleep", kRuleThread, "blocks a real thread"},
      {"sleep", kRuleThread, "blocks a real thread", true},
  };
  return kRules;
}

const char* RuleRemedy(std::string_view rule) {
  if (rule == kRuleWallclock)
    return "derive time from sim::Simulation::Now() / LocalClock";
  if (rule == kRuleRandom) return "draw from a seeded clouddb::Rng instead";
  if (rule == kRuleApplyNoparse)
    return "operate on db::RowOp images via Table::ApplyRowDelta only";
  return "model concurrency as simulation events (sim/simulation.h)";
}

// ---------------------------------------------------------------------------
// Rule: determinism token scan.
// ---------------------------------------------------------------------------

bool RandomExempt(const std::string& rel) {
  // ISSUE rule family 1: common/rng is the one sanctioned home of RNG code.
  return rel.rfind("src/common/rng", 0) == 0;
}

/// The one sanctioned home for real-thread primitives. The simulator itself
/// is single-threaded by design (src/sim, src/db, src/repl, ... must stay
/// thread-free — the tree-wide scan enforces it); the exception is the
/// harness's grid runner, whose workers each drive an *independent*
/// Simulation and merge results in deterministic grid order (DESIGN.md
/// "Simulation kernel & parallel harness"). Adding a file here requires the
/// same isolation argument.
bool ThreadExempt(const std::string& rel) {
  return rel == "src/harness/grid.h";
}

void ScanBannedTokens(const SourceFile& fi, std::vector<Diagnostic>* out) {
  for (size_t li = 0; li < fi.stripped_lines.size(); ++li) {
    const std::string& s = fi.stripped_lines[li];
    int line = static_cast<int>(li) + 1;
    size_t i = 0;
    while (i < s.size()) {
      if (!(std::isalpha(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
        ++i;
        continue;
      }
      if (i > 0 && IsIdentChar(s[i - 1])) {  // mid-identifier, skip
        ++i;
        while (i < s.size() && IsIdentChar(s[i])) ++i;
        continue;
      }
      size_t j = i;
      while (j < s.size() && IsIdentChar(s[j])) ++j;
      std::string_view ident(&s[i], j - i);
      for (const TokenRule& tr : BannedTokens()) {
        bool hit = tr.prefix ? ident.size() > tr.token.size() &&
                                   ident.substr(0, tr.token.size()) == tr.token
                             : ident == tr.token;
        if (!hit) continue;
        if (tr.rule == std::string_view(kRuleRandom) && RandomExempt(fi.rel))
          continue;
        if (tr.rule == std::string_view(kRuleThread) && ThreadExempt(fi.rel))
          continue;
        if (tr.call_only) {
          size_t k = j;
          while (k < s.size() && s[k] == ' ') ++k;
          if (k >= s.size() || s[k] != '(') continue;
          // Member calls like `clock.time()` are the simulated clock, not
          // the libc function; only flag free / namespace-qualified calls.
          size_t b = i;
          while (b > 0 && s[b - 1] == ' ') --b;
          if (b > 0 && (s[b - 1] == '.' ||
                        (b > 1 && s[b - 2] == '-' && s[b - 1] == '>')))
            continue;
          // An identifier right before is a return type — `long time()` is
          // a declaration of an unrelated function, not a libc call —
          // unless it is a statement keyword like `return time(nullptr)`.
          if (b > 0 && IsIdentChar(s[b - 1])) {
            size_t st = b;
            while (st > 0 && IsIdentChar(s[st - 1])) --st;
            static const std::set<std::string_view> kStmtKeywords = {
                "return", "co_return", "co_yield", "co_await",
                "throw",  "else",      "do",       "case",
            };
            if (!kStmtKeywords.count(std::string_view(&s[st], b - st)))
              continue;
          }
        }
        out->push_back({fi.rel, line, tr.rule,
                        "'" + std::string(ident) + "' " + tr.hint + "; " +
                            RuleRemedy(tr.rule)});
        break;
      }
      i = j;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: module layering + include cycles.
// ---------------------------------------------------------------------------

/// First path component after "src/", or "" when not an in-tree module file.
std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";  // file directly under src/
  return rel.substr(4, slash - 4);
}

void CheckLayering(const SourceFile& fi, std::vector<Diagnostic>* out) {
  std::string mod = ModuleOf(fi.rel);
  if (mod.empty()) return;
  const auto& ranks = LayerRanks();
  auto self = ranks.find(mod);
  if (self == ranks.end()) {
    out->push_back({fi.rel, 1, kRuleLayering,
                    "module '" + mod +
                        "' is not registered in the layer table; add it to "
                        "LayerRanks() in tools/lint/linter.cc and to the DAG "
                        "in DESIGN.md"});
    return;
  }
  for (const Include& inc : fi.includes) {
    size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-dir include
    std::string target = inc.path.substr(0, slash);
    auto it = ranks.find(target);
    if (it == ranks.end() || target == mod) continue;
    if (it->second > self->second) {
      out->push_back({fi.rel, inc.line, kRuleLayering,
                      "module '" + mod + "' (layer " +
                          std::to_string(self->second) +
                          ") may not include '" + target + "' (layer " +
                          std::to_string(it->second) +
                          "); dependencies must flow strictly downward"});
    } else if (it->second == self->second) {
      out->push_back({fi.rel, inc.line, kRuleLayering,
                      "'" + mod + "' and '" + target +
                          "' are peer modules at layer " +
                          std::to_string(self->second) +
                          " and may not include each other"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: parser-free writeset apply.
// ---------------------------------------------------------------------------

/// The row-based replication fast path exists to apply row images WITHOUT
/// the SQL front end; an sql_parser/sql_lexer include in its translation
/// units would silently reintroduce the per-statement parse cost the
/// whole subsystem is designed to avoid. The rule is scope-limited rather
/// than scope-exempted: only the writeset apply TUs are checked.
bool ApplyNoparseScoped(const std::string& rel) {
  return rel.rfind("src/db/writeset_apply", 0) == 0;
}

void CheckApplyNoparse(const SourceFile& fi, std::vector<Diagnostic>* out) {
  if (!ApplyNoparseScoped(fi.rel)) return;
  for (const Include& inc : fi.includes) {
    if (inc.path.find("sql_parser") != std::string::npos ||
        inc.path.find("sql_lexer") != std::string::npos) {
      out->push_back(
          {fi.rel, inc.line, kRuleApplyNoparse,
           "writeset apply must stay parser-free; including '" + inc.path +
               "' puts the SQL front end back on the row-image fast path; " +
               RuleRemedy(kRuleApplyNoparse)});
    }
  }
}

void CheckIncludeCycles(const std::vector<SourceFile>& files,
                        std::vector<Diagnostic>* out) {
  // File-level graph over scanned src/ files; include paths resolve against
  // the src/ include root and against the including file's own directory.
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& fi : files)
    if (fi.rel.rfind("src/", 0) == 0) by_rel[fi.rel] = &fi;

  struct Edge {
    std::string to;
    int line;
  };
  std::map<std::string, std::vector<Edge>> adj;
  for (const auto& [rel, fi] : by_rel) {
    std::string dir = rel.substr(0, rel.find_last_of('/') + 1);
    for (const Include& inc : fi->includes) {
      std::string cand1 = "src/" + inc.path;
      std::string cand2 = dir + inc.path;
      if (by_rel.count(cand1))
        adj[rel].push_back({cand1, inc.line});
      else if (by_rel.count(cand2))
        adj[rel].push_back({cand2, inc.line});
    }
  }

  // Iterative DFS, reporting each cycle once (keyed by its member set).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const Edge& e : adj[u]) {
      if (color[e.to] == 1) {
        auto it = std::find(stack.begin(), stack.end(), e.to);
        std::vector<std::string> cycle(it, stack.end());
        std::vector<std::string> key = cycle;
        std::sort(key.begin(), key.end());
        std::string key_s;
        for (const auto& k : key) key_s += k + "|";
        if (reported.insert(key_s).second) {
          std::string desc;
          for (const auto& f : cycle) desc += f + " -> ";
          desc += e.to;
          out->push_back({u, e.line, kRuleCycle, "include cycle: " + desc});
        }
      } else if (color[e.to] == 0) {
        dfs(e.to);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [rel, fi] : by_rel)
    if (color[rel] == 0) dfs(rel);
}

// ---------------------------------------------------------------------------
// Rule: metric-name hygiene.
// ---------------------------------------------------------------------------

/// Valid metric names are what the spine's aggregation model depends on:
/// lowercase dot-separated paths (`proxy.reads.bounded`) with at least a
/// module segment and a leaf, so MergeFrom lines up like-for-like across
/// node registries and ToString() sorts into stable dashboards. Segments are
/// non-empty runs of [a-z0-9_].
bool IsValidMetricName(const std::string& name) {
  int segments = 0;
  size_t run = 0;
  for (char c : name) {
    if (c == '.') {
      if (run == 0) return false;  // empty segment ("a..b", ".a", trailing)
      ++segments;
      run = 0;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      ++run;
    } else {
      return false;
    }
  }
  if (run == 0) return false;
  ++segments;
  return segments >= 2;
}

/// Scans MetricRegistry registration calls (AddCounter/AddGauge/AddProbe/
/// AddEwma) whose first argument is a string literal and checks
/// the name. Dynamic names (StrFormat(...)) are exempt — per-index backend
/// probes legitimately compute names — as are declarations/definitions,
/// where the char after '(' is a parameter type, not a quote. Duplicate
/// literals are flagged only under src/: production modules register each
/// name once per registry (MetricRegistry aborts at runtime otherwise),
/// while tests legitimately reuse a name across many short-lived registries.
void CheckMetricNames(const SourceFile& fi, std::vector<Diagnostic>* out) {
  static constexpr std::string_view kRegisterFns[] = {
      "AddCounter", "AddGauge", "AddProbe", "AddEwma"};
  const bool check_duplicates = fi.rel.rfind("src/", 0) == 0;
  std::map<std::string, int> first_seen;  // literal -> first line
  for (size_t li = 0; li < fi.stripped_lines.size(); ++li) {
    const std::string& s = fi.stripped_lines[li];
    for (std::string_view fn : kRegisterFns) {
      for (size_t pos = s.find(fn); pos != std::string::npos;
           pos = s.find(fn, pos + 1)) {
        if (pos > 0 && IsIdentChar(s[pos - 1])) continue;  // mid-identifier
        size_t k = pos + fn.size();
        if (k < s.size() && IsIdentChar(s[k])) continue;  // longer identifier
        while (k < s.size() && s[k] == ' ') ++k;
        if (k >= s.size() || s[k] != '(') continue;  // not a call
        ++k;
        // The literal opens on this line or (argument wrapped) the next one.
        size_t qline = li;
        while (k < s.size() && s[k] == ' ') ++k;
        if (k >= s.size() && li + 1 < fi.stripped_lines.size()) {
          qline = li + 1;
          const std::string& next = fi.stripped_lines[qline];
          k = 0;
          while (k < next.size() && next[k] == ' ') ++k;
        }
        const std::string& stripped = fi.stripped_lines[qline];
        if (k >= stripped.size() || stripped[k] != '"') continue;  // dynamic
        size_t close = stripped.find('"', k + 1);
        if (close == std::string::npos) continue;  // malformed; parser's job
        // StripCommentsAndStrings preserves quote positions but blanks the
        // contents — recover the literal from the raw line.
        std::string name =
            fi.raw_lines[qline].substr(k + 1, close - k - 1);
        int line = static_cast<int>(li) + 1;
        if (!IsValidMetricName(name)) {
          out->push_back(
              {fi.rel, line, kRuleMetricName,
               "metric name \"" + name +
                   "\" is not lowercase dot-separated; use at least two "
                   "non-empty [a-z0-9_] segments like \"module.metric\""});
          continue;
        }
        if (!check_duplicates) continue;
        auto [it, inserted] = first_seen.emplace(name, line);
        if (!inserted) {
          out->push_back(
              {fi.rel, line, kRuleMetricName,
               "metric name \"" + name + "\" already registered at line " +
                   std::to_string(it->second) +
                   "; each name is registered once per registry"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// File collection and driver.
// ---------------------------------------------------------------------------

bool SkipDirName(const std::string& name) {
  return name == "fixtures" || name == ".git" || name == "CMakeFiles" ||
         name == "third_party" || name.rfind("build", 0) == 0;
}

bool LintableExtension(const fs::path& p) {
  std::string e = p.extension().string();
  return e == ".h" || e == ".hpp" || e == ".hh" || e == ".cc" ||
         e == ".cpp" || e == ".cxx";
}

void CollectFiles(const fs::path& dir, std::vector<fs::path>* out) {
  if (!fs::exists(dir)) return;
  if (fs::is_regular_file(dir)) {
    if (LintableExtension(dir)) out->push_back(dir);
    return;
  }
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir)) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    if (fs::is_directory(p)) {
      if (!SkipDirName(p.filename().string())) CollectFiles(p, out);
    } else if (LintableExtension(p)) {
      out->push_back(p);
    }
  }
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string Diagnostic::Key() const {
  return file + ":" + std::to_string(line) + ":" + rule;
}

std::string Diagnostic::ToString() const {
  return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

LintResult RunLint(const Options& options) {
  LintResult result;
  fs::path root = options.root.empty() ? fs::current_path() : options.root;

  std::vector<std::string> dirs = options.dirs;
  if (dirs.empty()) {
    for (const char* d : {"src", "tools", "bench", "tests", "examples"})
      if (fs::exists(root / d)) dirs.push_back(d);
    if (dirs.empty()) dirs.push_back(".");
  }

  std::vector<fs::path> paths;
  for (const std::string& d : dirs) CollectFiles(root / d, &paths);
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths)
    files.push_back(LoadSourceFile(p, fs::relative(p, root).generic_string()));
  result.files_scanned = static_cast<int>(files.size());

  // Structural indexes feed the flow-aware passes.
  std::vector<FileIndex> indexes;
  indexes.reserve(files.size());
  for (const SourceFile& fi : files) indexes.push_back(BuildIndex(fi));
  std::vector<AnalyzedFile> analyzed;
  analyzed.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i)
    analyzed.push_back({&files[i], &indexes[i]});

  std::vector<Diagnostic> candidates;
  for (const SourceFile& fi : files) {
    ScanBannedTokens(fi, &candidates);
    CheckLayering(fi, &candidates);
    CheckMetricNames(fi, &candidates);
    CheckApplyNoparse(fi, &candidates);
  }
  CheckIncludeCycles(files, &candidates);
  CheckDanglingCaptures(analyzed, &candidates);
  CheckIncludeHygiene(analyzed, &candidates);

  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& fi : files) by_rel[fi.rel] = &fi;
  for (Diagnostic& d : candidates) {
    const SourceFile* fi = by_rel.at(d.file);
    auto it = fi->nolint.find(d.line);
    if (it != fi->nolint.end() &&
        (it->second.count("*") || it->second.count(d.rule))) {
      ++result.suppressions_used;
      continue;
    }
    result.diagnostics.push_back(std::move(d));
  }
  result.errors = static_cast<int>(result.diagnostics.size());

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return result;
}

std::string ToJson(const LintResult& result) {
  std::string out = "{\n";
  out += "  \"files_scanned\": " + std::to_string(result.files_scanned) + ",\n";
  out += "  \"suppressions_used\": " +
         std::to_string(result.suppressions_used) + ",\n";
  out += "  \"errors\": " + std::to_string(result.errors) + ",\n";
  out += "  \"diagnostics\": [";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"";
    JsonEscape(d.file, &out);
    out += "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"";
    JsonEscape(d.rule, &out);
    out += "\", \"severity\": \"error\", \"message\": \"";
    JsonEscape(d.message, &out);
    out += "\", \"fix\": \"";
    out += d.fix_kind == FixKind::kRemoveLine  ? "remove-line"
           : d.fix_kind == FixKind::kAddInclude ? "add-include"
                                                : "none";
    out += "\"";
    if (d.fix_kind == FixKind::kAddInclude) {
      out += ", \"fix_include\": \"";
      JsonEscape(d.fix_include, &out);
      out += "\"";
    }
    out += "}";
  }
  out += result.diagnostics.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

int ApplyFixes(const std::filesystem::path& root, const LintResult& result) {
  // file rel -> (lines to delete, include spellings to insert)
  std::map<std::string, std::pair<std::set<int>, std::set<std::string>>> plan;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.fix_kind == FixKind::kRemoveLine) {
      plan[d.file].first.insert(d.line);
    } else if (d.fix_kind == FixKind::kAddInclude && !d.fix_include.empty()) {
      plan[d.file].second.insert(d.fix_include);
    }
  }

  int edits = 0;
  for (const auto& [rel, fixes] : plan) {
    const std::set<int>& removals = fixes.first;
    fs::path path = root / rel;
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();

    std::vector<std::string> out;
    out.reserve(lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
      int ln = static_cast<int>(i) + 1;
      if (removals.count(ln)) {
        ++edits;
        // Removing the only include between two blank lines would leave a
        // double blank; fold it.
        if (!out.empty() && out.back().empty() && i + 1 < lines.size() &&
            lines[i + 1].empty()) {
          ++i;
        }
        continue;
      }
      out.push_back(lines[i]);
    }

    // Insert missing direct includes after the last quoted include (falling
    // back to the last include of any kind, then the top of the file).
    std::vector<std::string> adds;
    for (const std::string& inc : fixes.second) {
      std::string text = "#include \"" + inc + "\"";
      if (std::find(out.begin(), out.end(), text) == out.end())
        adds.push_back(text);
    }
    if (!adds.empty()) {
      int last_quoted = -1, last_any = -1;
      for (size_t i = 0; i < out.size(); ++i) {
        size_t p = out[i].find_first_not_of(" \t");
        if (p == std::string::npos || out[i][p] != '#') continue;
        if (out[i].find("include", p) == std::string::npos) continue;
        last_any = static_cast<int>(i);
        if (out[i].find('"') != std::string::npos)
          last_quoted = static_cast<int>(i);
      }
      int at = last_quoted >= 0 ? last_quoted : last_any;
      out.insert(at >= 0 ? out.begin() + at + 1 : out.begin(), adds.begin(),
                 adds.end());
      edits += static_cast<int>(adds.size());
    }

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    for (const std::string& l : out) os << l << "\n";
  }
  return edits;
}

namespace {

int CountFixable(const LintResult& r) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.fix_kind != FixKind::kNone) ++n;
  return n;
}

}  // namespace

FixLoopResult FixUntilConverged(const std::filesystem::path& root,
                                const std::function<LintResult()>& run_lint,
                                int max_passes) {
  FixLoopResult loop;
  loop.result = run_lint();
  while (CountFixable(loop.result) > 0 && loop.passes < max_passes) {
    int edits = ApplyFixes(root, loop.result);
    ++loop.passes;
    loop.edits += edits;
    loop.result = run_lint();
    // Zero edits with fixable diagnostics left means the fixes are not
    // reaching the files; another round would loop forever.
    if (edits == 0) break;
  }
  loop.converged = CountFixable(loop.result) == 0;
  return loop;
}

FixLoopResult FixUntilConverged(const Options& options, int max_passes) {
  fs::path root = options.root.empty() ? fs::current_path() : options.root;
  return FixUntilConverged(
      root, [&options]() { return RunLint(options); }, max_passes);
}

}  // namespace clouddb::lint
