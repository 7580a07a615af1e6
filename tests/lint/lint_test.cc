// Fixture-based tests for clouddb_lint (tools/lint). Each fixture directory
// under tests/lint/fixtures/ is a miniature scan root with known violations;
// tests assert the exact file:line:rule diagnostics the analyzer must emit,
// the JSON golden, and the --fix loop.
// The tree-wide `clouddb_lint_tree` ctest run skips any directory named
// "fixtures", so the deliberate violations here never fail CI.

#include "frontend.h"
#include "linter.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::lint {
namespace {

namespace fs = std::filesystem;

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

using StrVec = std::vector<std::string>;

TEST(WallclockRule, FlagsEveryRealTimeSource) {
  LintResult r = RunOn("wallclock");
  EXPECT_EQ(Keys(r), (StrVec{
                         "bad_clock.cc:4:clouddb-wallclock",
                         "bad_clock.cc:5:clouddb-wallclock",
                         "bad_clock.cc:6:clouddb-wallclock",
                         "bad_clock.cc:7:clouddb-wallclock",
                     }));
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_NE(r.diagnostics[0].message.find("Simulation::Now()"),
            std::string::npos);
}

TEST(WallclockRule, RejectsWallClockLruInAStatementCache) {
  // The real db::StatementCache keys recency on list position — a pure
  // function of the statement sequence. A variant that timestamps entries
  // with any real-time source would make cache behavior (and so the whole
  // simulation) depend on host timing; the tree-wide scan (which covers
  // src/db/statement_cache.cc with --forbid-nolint) must reject it.
  LintResult r = RunOn("cache_wallclock");
  EXPECT_EQ(Keys(r), (StrVec{
                         "bad_cache_lru.cc:5:clouddb-wallclock",
                         "bad_cache_lru.cc:8:clouddb-wallclock",
                     }));
}

TEST(WallclockRule, IgnoresCommentsStringsAndMemberCalls) {
  LintResult r = RunOn("wallclock_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
}

TEST(RandomRule, FlagsPlatformRngsAndStdEngines) {
  LintResult r = RunOn("random");
  EXPECT_EQ(Keys(r), (StrVec{
                         "bad_random.cc:2:clouddb-random",
                         "bad_random.cc:3:clouddb-random",
                         "bad_random.cc:4:clouddb-random",
                         "bad_random.cc:5:clouddb-random",
                     }));
}

TEST(RandomRule, CommonRngModuleIsExempt) {
  LintResult r = RunOn("random_exempt");
  EXPECT_EQ(Keys(r), StrVec{});
}

TEST(ThreadRule, FlagsThreadsAtomicsSleepsAndPthreads) {
  LintResult r = RunOn("threads");
  EXPECT_EQ(Keys(r), (StrVec{
                         "bad_threads.cc:1:clouddb-thread",
                         "bad_threads.cc:2:clouddb-thread",
                         "bad_threads.cc:3:clouddb-thread",
                         "bad_threads.cc:4:clouddb-thread",
                         "bad_threads.cc:5:clouddb-thread",
                         "bad_threads.cc:5:clouddb-thread",
                         "bad_threads.cc:6:clouddb-thread",
                     }));
}

TEST(ThreadRule, IgnoresThreadLikeIdentifiersAndProse) {
  LintResult r = RunOn("threads_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
}

TEST(ThreadRule, GridRunnerIsExemptButEverythingElseStaysThreadFree) {
  // src/harness/grid.h is the one sanctioned home for real threads (workers
  // drive independent Simulations; results merge in grid order). The
  // allowlist must not leak: identical thread tokens in the single-threaded
  // core (src/sim, src/db, src/repl) and in a sibling harness file must
  // still fire.
  LintResult r = RunOn("thread_exempt");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/db/engine.cc:1:clouddb-thread",
                         "src/db/engine.cc:2:clouddb-thread",
                         "src/harness/sweep.cc:1:clouddb-thread",
                         "src/harness/sweep.cc:2:clouddb-thread",
                         "src/repl/apply.cc:1:clouddb-thread",
                         "src/repl/apply.cc:2:clouddb-thread",
                         "src/sim/kernel.cc:1:clouddb-thread",
                         "src/sim/kernel.cc:2:clouddb-thread",
                     }));
  EXPECT_EQ(r.files_scanned, 5);
}

TEST(Nolint, SuppressesMatchingRuleOnlyAndIsCounted) {
  LintResult r = RunOn("nolint");
  // Lines 1-2 (same-line NOLINT) and 4 (NOLINTNEXTLINE) are suppressed;
  // line 5 carries a NOLINT for the wrong rule and must still fire.
  EXPECT_EQ(Keys(r), (StrVec{
                         "mixed.cc:5:clouddb-wallclock",
                         "mixed.cc:6:clouddb-wallclock",
                     }));
  EXPECT_EQ(r.suppressions_used, 3);
}

TEST(LayeringRule, RejectsUpwardPeerAndUnregisteredEdges) {
  LintResult r = RunOn("layering_bad");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/db/table_ext.h:3:clouddb-layering",
                         "src/net/chan.h:2:clouddb-layering",
                         "src/widgets/thing.h:1:clouddb-layering",
                     }));
  EXPECT_NE(r.diagnostics[0].message.find("strictly downward"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("peer modules"), std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("not registered"),
            std::string::npos);
}

TEST(LayeringRule, AcceptsDownwardEdges) {
  LintResult r = RunOn("layering_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 3);
}

TEST(CycleRule, ReportsIncludeCycleOnce) {
  LintResult r = RunOn("cycle");
  EXPECT_EQ(Keys(r), (StrVec{"src/db/b.h:2:clouddb-include-cycle"}));
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].message,
            "include cycle: src/db/a.h -> src/db/b.h -> src/db/a.h");
}

TEST(CycleRule, DiamondIncludeGraphIsNotACycle) {
  // layering_clean is a diamond: cluster.h -> {rows.h, base.h},
  // rows.h -> base.h. Shared includes must not be reported as cycles, and
  // base.h, included directly and reachable through rows.h, is neither an
  // unused nor a missing include (clouddb-include-hygiene's clean case).
  LintResult r = RunOn("layering_clean");
  EXPECT_EQ(Keys(r), StrVec{});
}

TEST(CleanTree, ProducesZeroOutput) {
  LintResult r = RunOn("clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
  EXPECT_EQ(r.suppressions_used, 0);
}

TEST(DanglingCaptureRule, SeededBugIsCaughtAtTheExactLine) {
  // poller.cc seeds three lifetime bugs: a `this` capture, a reference
  // capture of a local, and a by-copy raw-pointer capture, all handed to the
  // kernel with no cancelling timer member and no destructor-side Cancel.
  LintResult r = RunOn("dangling_capture");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/sim/poller.cc:10:clouddb-dangling-capture",
                         "src/sim/poller.cc:15:clouddb-dangling-capture",
                         "src/sim/poller.cc:19:clouddb-dangling-capture",
                     }));
  ASSERT_EQ(r.diagnostics.size(), 3u);
  EXPECT_NE(r.diagnostics[0].message.find("'ScheduleAfter'"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("captures 'this'"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("captures '&hits'"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("raw pointer 'rows'"),
            std::string::npos);
}

TEST(DanglingCaptureRule, NolintSuppressesAndIsCounted) {
  LintResult r = RunOn("dangling_capture_nolint");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.suppressions_used, 1);
}

TEST(DanglingCaptureRule, SafeHarborsAndValueCapturesAreClean) {
  // Covers all three escape hatches: a Timer member, a destructor that
  // cancels the stored handle directly, a destructor that cancels through a
  // same-class helper — plus a plain by-value capture, which never dangles.
  LintResult r = RunOn("dangling_capture_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
}

TEST(IncludeHygieneRule, FlagsUnusedAndTransitiveIncludesWithFixes) {
  LintResult r = RunOn("include_hygiene");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/db/user.cc:2:clouddb-include-hygiene",
                         "src/db/user.cc:6:clouddb-include-hygiene",
                     }));
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].fix_kind, FixKind::kRemoveLine);
  EXPECT_EQ(r.diagnostics[1].fix_kind, FixKind::kAddInclude);
  EXPECT_EQ(r.diagnostics[1].fix_include, "common/strutil.h");
}

TEST(JsonOutput, MatchesGoldenByteForByte) {
  LintResult r = RunOn("include_hygiene");
  EXPECT_EQ(
      ToJson(r),
      "{\n"
      "  \"files_scanned\": 4,\n"
      "  \"suppressions_used\": 0,\n"
      "  \"errors\": 2,\n"
      "  \"diagnostics\": [\n"
      "    {\"file\": \"src/db/user.cc\", \"line\": 2, \"rule\": "
      "\"clouddb-include-hygiene\", \"severity\": \"error\", \"message\": "
      "\"include \\\"common/extra.h\\\" is unused: no symbol it declares is "
      "referenced here; remove it (clouddb_lint --fix)\", \"fix\": "
      "\"remove-line\"},\n"
      "    {\"file\": \"src/db/user.cc\", \"line\": 6, \"rule\": "
      "\"clouddb-include-hygiene\", \"severity\": \"error\", \"message\": "
      "\"'FormatX' is declared in \\\"common/strutil.h\\\" which is only "
      "transitively included; include it directly (clouddb_lint --fix)\", "
      "\"fix\": \"add-include\", \"fix_include\": \"common/strutil.h\"}\n"
      "  ]\n"
      "}\n");
}

/// Copies a fixture tree into a scratch dir the fixer may mutate.
fs::path ScratchCopy(const std::string& scenario, const std::string& tag) {
  fs::path src = fs::path(CLOUDDB_LINT_FIXTURE_DIR) / scenario;
  fs::path scratch = fs::path(testing::TempDir()) / tag;
  fs::remove_all(scratch);
  fs::copy(src, scratch, fs::copy_options::recursive);
  return scratch;
}

std::string ReadText(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ApplyFixes, RemovesUnusedAndInsertsDirectIncludesToConvergence) {
  // Copy the include_hygiene scenario into a scratch root, apply the fixes it
  // carries, and re-lint: the tree must come out hygiene-clean in one pass.
  fs::path scratch = ScratchCopy("include_hygiene", "clouddb_lint_fix");
  Options opts;
  opts.root = scratch;
  LintResult before = RunLint(opts);
  ASSERT_EQ(before.errors, 2);
  EXPECT_EQ(ApplyFixes(scratch, before), 2);

  LintResult after = RunLint(opts);
  EXPECT_EQ(Keys(after), StrVec{});

  std::string text = ReadText(scratch / "src" / "db" / "user.cc");
  EXPECT_EQ(text.find("common/extra.h"), std::string::npos);
  EXPECT_NE(text.find("#include \"common/strutil.h\""), std::string::npos);
  fs::remove_all(scratch);
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
  EXPECT_EQ(ReadText(scratch / "src/db/user.cc").find("extra.h"),
            std::string::npos);
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

TEST(MetricNameRule, FlagsMalformedAndDuplicateNamesInSrc) {
  // src/metrics/metrics_init.cc: lines 7-10 are malformed (uppercase, single
  // segment, empty segment, illegal '-'); line 11 re-registers the line-6
  // name. The wrapped literal (12-13) and the StrFormat-computed name (14)
  // are clean. tests/metrics_reuse_test.cc re-registers a name across two
  // registries — legal outside src/ — but its malformed name still fires.
  LintResult r = RunOn("metric_name");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/metrics/metrics_init.cc:7:clouddb-metric-name",
                         "src/metrics/metrics_init.cc:8:clouddb-metric-name",
                         "src/metrics/metrics_init.cc:9:clouddb-metric-name",
                         "src/metrics/metrics_init.cc:10:clouddb-metric-name",
                         "src/metrics/metrics_init.cc:11:clouddb-metric-name",
                         "tests/metrics_reuse_test.cc:8:clouddb-metric-name",
                     }));
  ASSERT_EQ(r.diagnostics.size(), 6u);
  EXPECT_NE(r.diagnostics[0].message.find("not lowercase dot-separated"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[4].message.find("already registered at line 6"),
            std::string::npos);
}

TEST(MetricNameRule, IgnoresDefinitionsWrappedLiteralsAndComputedNames) {
  LintResult r = RunOn("metric_name_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
}

TEST(ApplyNoparseRule, FlagsParserIncludesOnlyInWritesetApplyFiles) {
  // src/db/writeset_apply.cc pulls in both front-end headers (lines 1-2);
  // src/db/statement_apply.cc includes sql_parser.h too but sits outside
  // the writeset-apply scope, so it must stay silent.
  LintResult r = RunOn("apply_noparse");
  EXPECT_EQ(Keys(r), (StrVec{
                         "src/db/writeset_apply.cc:1:clouddb-apply-noparse",
                         "src/db/writeset_apply.cc:2:clouddb-apply-noparse",
                     }));
  EXPECT_EQ(r.files_scanned, 2);
  ASSERT_GE(r.diagnostics.size(), 1u);
  EXPECT_NE(r.diagnostics[0].message.find("parser-free"), std::string::npos);
}

TEST(ApplyNoparseRule, RowDeltaOnlyApplyIsClean) {
  LintResult r = RunOn("apply_noparse_clean");
  EXPECT_EQ(Keys(r), StrVec{});
  EXPECT_EQ(r.files_scanned, 1);
}

TEST(StripCommentsAndStrings, PreservesLinesBlanksContent) {
  std::string src =
      "int a; // std::thread here\n"
      "/* rand()\n"
      "   rand() */ int b;\n"
      "const char* s = \"mutex\";\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(out.find("thread"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripCommentsAndStrings, HandlesRawStringsAndDigitSeparators) {
  std::string src =
      "auto r = R\"(std::mutex inside raw)\";\n"
      "long n = 1'000'000;\n"
      "char c = 't';\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  EXPECT_NE(out.find("1'000'000"), std::string::npos);
  EXPECT_NE(out.find("long n"), std::string::npos);
}

}  // namespace
}  // namespace clouddb::lint
