// Tests for the interprocedural analysis core of clouddb_lint: CFG shape,
// call-graph resolution, the worklist dataflow engine, the three
// graph-backed rules (clouddb-use-after-move, clouddb-status-path,
// clouddb-determinism-taint), baseline filtering, and
// the --fix convergence loop. Fixture trees live under tests/lint/fixtures
// next to the ones lint_test.cc uses.

#include "callgraph.h"
#include "cfg.h"
#include "dataflow.h"
#include "frontend.h"
#include "linter.h"
#include "rules_flow.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::lint {
namespace {

namespace fs = std::filesystem;
using StrVec = std::vector<std::string>;

LintResult RunOn(const std::string& scenario) {
  Options opts;
  opts.root = fs::path(CLOUDDB_LINT_FIXTURE_DIR) / scenario;
  return RunLint(opts);
}

std::vector<std::string> Keys(const LintResult& r) {
  std::vector<std::string> keys;
  for (const Diagnostic& d : r.diagnostics) keys.push_back(d.Key());
  return keys;
}

// ---------------------------------------------------------------------------
// CFG construction.
// ---------------------------------------------------------------------------

struct ParsedFn {
  SourceFile file;
  FileIndex idx;
  Cfg cfg;
};

/// Parses `text` as a source file and builds the CFG of the function named
/// `name` (the only function in most tests).
ParsedFn CfgOf(const std::string& text, const std::string& name) {
  ParsedFn p;
  p.file = ParseSource(text, "src/db/t.cc");
  p.idx = BuildIndex(p.file);
  for (const FunctionDef& fn : p.idx.functions) {
    if (fn.name == name) {
      p.cfg = BuildCfg(p.file, p.idx, fn);
      return p;
    }
  }
  ADD_FAILURE() << "no function named " << name;
  return p;
}

/// Index of the first non-synthetic node whose range starts on `line`.
int NodeAtLine(const Cfg& cfg, int line) {
  for (size_t n = 2; n < cfg.nodes.size(); ++n) {
    if (cfg.nodes[n].line == line && cfg.nodes[n].begin < cfg.nodes[n].end)
      return static_cast<int>(n);
  }
  return -1;
}

bool HasEdge(const Cfg& cfg, int from, int to) {
  if (from < 0 || to < 0) return false;
  const std::vector<int>& s = cfg.nodes[static_cast<size_t>(from)].succs;
  return std::find(s.begin(), s.end(), to) != s.end();
}

TEST(CfgShape, EarlyReturnForksTheExit) {
  ParsedFn p = CfgOf(
      "void F(int x) {\n"        // 1
      "  if (x > 0) {\n"         // 2
      "    return;\n"            // 3
      "  }\n"                    // 4
      "  Work();\n"              // 5
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  int cond = NodeAtLine(p.cfg, 2);
  int ret = NodeAtLine(p.cfg, 3);
  int work = NodeAtLine(p.cfg, 5);
  EXPECT_EQ(p.cfg.nodes[static_cast<size_t>(cond)].succs.size(), 2u);
  EXPECT_TRUE(HasEdge(p.cfg, ret, Cfg::kExit));
  EXPECT_TRUE(HasEdge(p.cfg, work, Cfg::kExit));
  EXPECT_FALSE(HasEdge(p.cfg, ret, work));
  EXPECT_EQ(p.cfg.nodes[Cfg::kExit].preds.size(), 2u);
}

TEST(CfgShape, ReturnInsideLambdaIsNotAFunctionExit) {
  ParsedFn p = CfgOf(
      "int F(int x) {\n"
      "  auto fn = [x]() {\n"
      "    return x + 1;\n"
      "  };\n"
      "  int y = fn();\n"
      "  return y;\n"
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  // The lambda-bearing statement is one opaque node; only the final return
  // reaches the exit.
  EXPECT_EQ(p.cfg.nodes[Cfg::kExit].preds.size(), 1u);
  EXPECT_EQ(p.cfg.nodes.size(), 5u);  // entry, exit, 3 statements
}

TEST(CfgShape, SwitchCasesFallThroughUntilBreak) {
  ParsedFn p = CfgOf(
      "int F(int x) {\n"         // 1
      "  int r = 0;\n"           // 2
      "  switch (x) {\n"         // 3
      "    case 0:\n"            // 4
      "      r = 1;\n"           // 5
      "    case 1:\n"            // 6
      "      r = 2;\n"           // 7
      "      break;\n"           // 8
      "    default:\n"           // 9
      "      r = 3;\n"           // 10
      "  }\n"                    // 11
      "  return r;\n"            // 12
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  int case0 = NodeAtLine(p.cfg, 5);
  int case1 = NodeAtLine(p.cfg, 7);
  ASSERT_GE(case0, 0);
  ASSERT_GE(case1, 0);
  // case 0 falls through into case 1 and never jumps straight to the
  // switch join.
  EXPECT_TRUE(HasEdge(p.cfg, case0, case1));
  EXPECT_FALSE(HasEdge(p.cfg, case0, NodeAtLine(p.cfg, 12)));
}

TEST(CfgShape, DoWhileHasABackEdge) {
  ParsedFn p = CfgOf(
      "int F(int n) {\n"         // 1
      "  int i = 0;\n"           // 2
      "  do {\n"                 // 3
      "    i = i + 1;\n"         // 4
      "  } while (i < n);\n"     // 5
      "  return i;\n"            // 6
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  int body = NodeAtLine(p.cfg, 4);
  int cond = NodeAtLine(p.cfg, 5);
  EXPECT_TRUE(HasEdge(p.cfg, body, cond));
  // The back edge targets a synthetic loop head that dominates the body.
  bool loops_back = false;
  for (int s : p.cfg.nodes[static_cast<size_t>(cond)].succs)
    if (s == body || HasEdge(p.cfg, s, body)) loops_back = true;
  EXPECT_TRUE(loops_back);
  EXPECT_TRUE(HasEdge(p.cfg, cond, NodeAtLine(p.cfg, 6)));
}

TEST(CfgShape, ReversePostOrderCoversUnreachableNodes) {
  ParsedFn p = CfgOf(
      "int F() {\n"
      "  return 1;\n"
      "  int dead = 0;\n"
      "  return dead;\n"
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  std::vector<int> rpo = p.cfg.ReversePostOrder();
  EXPECT_EQ(rpo.size(), p.cfg.nodes.size());
  std::vector<int> sorted = rpo;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i)
    EXPECT_EQ(sorted[i], static_cast<int>(i));
}

// ---------------------------------------------------------------------------
// Call graph.
// ---------------------------------------------------------------------------

TEST(CallGraphBuild, ResolvesByNameAndArity) {
  SourceFile sf = ParseSource(
      "int Helper(int a) { return a; }\n"
      "int Helper(int a, int b) { return a + b; }\n"
      "int Caller(int x) { return Helper(x) + Helper(x, x); }\n"
      "int Odd(int x) { return Helper(x, x, x); }\n",
      "src/db/a.cc");
  FileIndex idx = BuildIndex(sf);
  std::vector<AnalyzedFile> files{{&sf, &idx}};
  CallGraph cg = BuildCallGraph(files);

  const CgFunction* caller = nullptr;
  const CgFunction* odd = nullptr;
  for (const CgFunction& f : cg.functions) {
    if (f.name == "Caller") caller = &f;
    if (f.name == "Odd") odd = &f;
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 2u);
  ASSERT_EQ(caller->calls[0].targets.size(), 1u);
  ASSERT_EQ(caller->calls[1].targets.size(), 1u);
  EXPECT_EQ(cg.functions[caller->calls[0].targets[0]].arity, 1u);
  EXPECT_EQ(cg.functions[caller->calls[1].targets[0]].arity, 2u);

  // No exact arity match: the site keeps every same-named candidate so the
  // analyses stay conservative.
  ASSERT_NE(odd, nullptr);
  ASSERT_EQ(odd->calls.size(), 1u);
  EXPECT_EQ(odd->calls[0].targets.size(), 2u);
}

// ---------------------------------------------------------------------------
// Dataflow engine.
// ---------------------------------------------------------------------------

TEST(DataflowEngine, ForwardFactsFlowAroundALoop) {
  ParsedFn p = CfgOf(
      "void F(int n) {\n"        // 1
      "  Acquire();\n"           // 2
      "  while (n > 0) {\n"      // 3
      "    Step();\n"            // 4
      "    n = n - 1;\n"         // 5
      "  }\n"                    // 6
      "  Release();\n"           // 7
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  size_t num = p.cfg.nodes.size();
  std::vector<std::vector<bool>> gen(num), kill(num);
  gen[static_cast<size_t>(NodeAtLine(p.cfg, 2))] = {true};
  kill[static_cast<size_t>(NodeAtLine(p.cfg, 7))] = {true};
  DataflowResult r = SolveForward(p.cfg, 1, gen, kill);
  // The fact generated before the loop reaches the loop body and the
  // release site, but is dead after the kill.
  EXPECT_TRUE(r.in[static_cast<size_t>(NodeAtLine(p.cfg, 4))][0]);
  EXPECT_TRUE(r.in[static_cast<size_t>(NodeAtLine(p.cfg, 7))][0]);
  EXPECT_FALSE(r.out[static_cast<size_t>(NodeAtLine(p.cfg, 7))][0]);
  EXPECT_FALSE(r.out[Cfg::kExit][0]);
}

TEST(DataflowEngine, BackwardLivenessReachesDefinitionSites) {
  ParsedFn p = CfgOf(
      "void F(int n) {\n"        // 1
      "  Acquire();\n"           // 2
      "  while (n > 0) {\n"      // 3
      "    Step();\n"            // 4
      "  }\n"                    // 5
      "  Release();\n"           // 6
      "}\n",
      "F");
  ASSERT_TRUE(p.cfg.ok);
  size_t num = p.cfg.nodes.size();
  std::vector<std::vector<bool>> gen(num), kill(num);
  gen[static_cast<size_t>(NodeAtLine(p.cfg, 6))] = {true};  // read at release
  DataflowResult r = SolveBackward(p.cfg, 1, gen, kill);
  EXPECT_TRUE(r.out[static_cast<size_t>(NodeAtLine(p.cfg, 2))][0]);
  EXPECT_TRUE(r.out[static_cast<size_t>(NodeAtLine(p.cfg, 4))][0]);
  EXPECT_FALSE(r.out[static_cast<size_t>(NodeAtLine(p.cfg, 6))][0]);
}

// ---------------------------------------------------------------------------
// clouddb-use-after-move.
// ---------------------------------------------------------------------------

TEST(UseAfterMoveRule, FlagsStraightLineBranchJoinAndDoubleMove) {
  LintResult r = RunOn("use_after_move");
  ASSERT_EQ(Keys(r), (StrVec{
                         "src/sim/queue.cc:14:clouddb-use-after-move",
                         "src/sim/queue.cc:22:clouddb-use-after-move",
                         "src/sim/queue.cc:28:clouddb-use-after-move",
                     }));
  EXPECT_NE(r.diagnostics[1].message.find("on some path"), std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("moved again"), std::string::npos);
}

TEST(UseAfterMoveRule, KillsAndDisjointPathsAreClean) {
  LintResult r = RunOn("use_after_move_clean");
  EXPECT_EQ(Keys(r), StrVec{});
}

// ---------------------------------------------------------------------------
// clouddb-status-path.
// ---------------------------------------------------------------------------

TEST(StatusPathRule, FlagsHalfCheckedAndOverwrittenDefinitions) {
  LintResult r = RunOn("status_path");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/db/apply_paths.cc:10:clouddb-status-path",
                         "src/db/apply_paths.cc:20:clouddb-status-path",
                     }));
}

TEST(StatusPathRule, AllPathChecksVoidCastsAndReuseAreClean) {
  LintResult r = RunOn("status_path_clean");
  EXPECT_EQ(Keys(r), StrVec{});
}

// ---------------------------------------------------------------------------
// clouddb-determinism-taint.
// ---------------------------------------------------------------------------

TEST(DeterminismTaintRule, TaintCrossesFilesWithAWitnessChain) {
  LintResult r = RunOn("determinism_taint");
  ASSERT_EQ(Keys(r), (StrVec{
                         "src/sim/seed.cc:6:clouddb-determinism-taint",
                         "src/sim/seed.cc:9:clouddb-determinism-taint",
                     }));
  EXPECT_NE(r.diagnostics[0].message.find("(MixedSeed -> Entropy)"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("(PickSeed -> MixedSeed -> Entropy)"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("'rand'"), std::string::npos);
}

TEST(DeterminismTaintRule, MemberCallsAndPlainIdentifiersAreClean) {
  LintResult r = RunOn("determinism_taint_clean");
  EXPECT_EQ(Keys(r), StrVec{});
}

TEST(JsonOutput, InterproceduralDiagnosticsMatchGoldenByteForByte) {
  LintResult r = RunOn("use_after_move");
  EXPECT_EQ(
      ToJson(r),
      "{\n"
      "  \"files_scanned\": 1,\n"
      "  \"suppressions_used\": 0,\n"
      "  \"justified_suppressions\": 0,\n"
      "  \"baselined\": 0,\n"
      "  \"errors\": 3,\n"
      "  \"warnings\": 0,\n"
      "  \"diagnostics\": [\n"
      "    {\"file\": \"src/sim/queue.cc\", \"line\": 14, \"rule\": "
      "\"clouddb-use-after-move\", \"severity\": \"error\", \"message\": "
      "\"use of 'cb' after it was moved (moved-from since line 13 on some "
      "path); reinitialize it before this point\", \"fix\": \"none\"},\n"
      "    {\"file\": \"src/sim/queue.cc\", \"line\": 22, \"rule\": "
      "\"clouddb-use-after-move\", \"severity\": \"error\", \"message\": "
      "\"use of 'cb' after it was moved (moved-from since line 20 on some "
      "path); reinitialize it before this point\", \"fix\": \"none\"},\n"
      "    {\"file\": \"src/sim/queue.cc\", \"line\": 28, \"rule\": "
      "\"clouddb-use-after-move\", \"severity\": \"error\", \"message\": "
      "\"'cb' is moved again (moved-from since line 27 on some path); "
      "reinitialize it before this point\", \"fix\": \"none\"}\n"
      "  ]\n"
      "}\n");
}

// ---------------------------------------------------------------------------
// Baseline filtering.
// ---------------------------------------------------------------------------

TEST(Baseline, FrozenFindingsAreDroppedAndCounted) {
  fs::path bl = fs::path(testing::TempDir()) / "clouddb_lint_baseline.txt";
  {
    std::ofstream out(bl);
    out << "# frozen pre-existing findings\n"
        << "src/sim/queue.cc:14:clouddb-use-after-move\n"
        << "src/db/never.cc:1:clouddb-wallclock\n";  // stale entries are inert
  }
  Options opts;
  opts.root = fs::path(CLOUDDB_LINT_FIXTURE_DIR) / "use_after_move";
  opts.baseline_file = bl;
  LintResult r = RunLint(opts);
  EXPECT_EQ(r.baselined, 1);
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/sim/queue.cc:22:clouddb-use-after-move",
                         "src/sim/queue.cc:28:clouddb-use-after-move",
                     }));
  fs::remove(bl);
}

// ---------------------------------------------------------------------------
// --fix convergence loop.
// ---------------------------------------------------------------------------

/// Copies a fixture tree into a scratch dir the fixer may mutate.
fs::path ScratchCopy(const std::string& scenario, const std::string& tag) {
  fs::path src = fs::path(CLOUDDB_LINT_FIXTURE_DIR) / scenario;
  fs::path scratch = fs::path(testing::TempDir()) / tag;
  fs::remove_all(scratch);
  fs::copy(src, scratch, fs::copy_options::recursive);
  return scratch;
}

TEST(FixLoop, DuplicateUnusedIncludeConvergesInTwoPasses) {
  // The hygiene pass sees one include per (file, target) pair, so the
  // duplicate unused include surfaces only after the first copy is removed:
  // exactly the case a single --fix pass used to leave behind silently.
  fs::path scratch = ScratchCopy("fix_two_pass", "clouddb_lint_fix2");
  Options opts;
  opts.root = scratch;
  FixLoopResult loop = FixUntilConverged(opts);
  EXPECT_TRUE(loop.converged);
  EXPECT_EQ(loop.passes, 2);
  EXPECT_EQ(loop.edits, 2);
  EXPECT_EQ(Keys(loop.result), StrVec{});

  std::ifstream in(scratch / "src/db/user.cc");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find("extra.h"), std::string::npos);
  fs::remove_all(scratch);
}

TEST(FixLoop, SinglePassBudgetLeavesResidueUnconverged) {
  fs::path scratch = ScratchCopy("fix_two_pass", "clouddb_lint_fix1");
  Options opts;
  opts.root = scratch;
  FixLoopResult loop = FixUntilConverged(opts, /*max_passes=*/1);
  EXPECT_FALSE(loop.converged);
  EXPECT_EQ(loop.passes, 1);
  EXPECT_EQ(loop.edits, 1);
  EXPECT_EQ(Keys(loop.result),
            (StrVec{"src/db/user.cc:2:clouddb-include-hygiene"}));
  fs::remove_all(scratch);
}

TEST(FixLoop, StalledFixesStopEarlyAndReportDivergence) {
  // Regression: a fixable diagnostic whose fix never lands (here: the file
  // does not exist) must not loop forever or report success.
  auto runner = []() {
    LintResult r;
    Diagnostic d{"src/db/ghost.cc", 1, "clouddb-include-hygiene",
                 "include \"x.h\" is unused"};
    d.fix_kind = FixKind::kRemoveLine;
    r.diagnostics.push_back(d);
    return r;
  };
  FixLoopResult loop =
      FixUntilConverged(fs::path(testing::TempDir()), runner, /*max_passes=*/4);
  EXPECT_FALSE(loop.converged);
  EXPECT_EQ(loop.passes, 1);  // stopped at the first zero-edit round
  EXPECT_EQ(loop.edits, 0);
}

}  // namespace
}  // namespace clouddb::lint
