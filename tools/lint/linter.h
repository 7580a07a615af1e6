#ifndef CLOUDDB_TOOLS_LINT_LINTER_H_
#define CLOUDDB_TOOLS_LINT_LINTER_H_

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace clouddb::lint {

/// Mechanically safe auto-fix attached to a diagnostic (clouddb_lint --fix).
enum class FixKind {
  kNone,
  kRemoveLine,   // delete the diagnostic's line (unused #include)
  kAddInclude,   // insert `#include "fix_include"` into the quoted block
};

/// One finding — always an error. Rendered as "file:line: rule: message"
/// with `file` relative to the scan root and '/'-separated on every platform,
/// so fixture tests can assert diagnostics byte-for-byte.
struct Diagnostic {
  Diagnostic() = default;
  Diagnostic(std::string file_in, int line_in, std::string rule_in,
             std::string message_in)
      : file(std::move(file_in)),
        line(line_in),
        rule(std::move(rule_in)),
        message(std::move(message_in)) {}

  std::string file;
  int line = 0;
  std::string rule;     // e.g. "clouddb-wallclock"
  std::string message;
  FixKind fix_kind = FixKind::kNone;
  std::string fix_include;  // include spelling for kAddInclude

  /// "file:line:rule" — the stable identity asserted by the fixture tests.
  std::string Key() const;
  /// "file:line: rule: message" — the full human-readable form.
  std::string ToString() const;
};

struct Options {
  /// Directory the scan is anchored at; diagnostics are relative to it.
  std::filesystem::path root;
  /// Scan directories relative to `root`. When empty, defaults to whichever
  /// of {src, tools, bench, tests, examples} exist under `root`; if none do,
  /// `root` itself is scanned (the mode fixture suites use).
  std::vector<std::string> dirs;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  int files_scanned = 0;
  int errors = 0;  // == diagnostics.size(): every finding is an error
  /// Number of violations silenced by NOLINT / NOLINTNEXTLINE comments.
  /// CI runs with --forbid-nolint so merged code needs zero of these.
  int suppressions_used = 0;
};

/// Runs every rule (the token-level determinism, layering and scope rules,
/// and the flow-aware passes: dangling captures, include hygiene) over the
/// configured tree. Pure function of the filesystem: same tree,
/// same result, in deterministic order.
LintResult RunLint(const Options& options);

/// Serializes a result as machine-readable JSON (stable field order) for CI
/// annotation: {files_scanned, suppressions_used, errors,
/// diagnostics: [{file, line, rule, severity, message, fix}]}.
std::string ToJson(const LintResult& result);

/// Applies the mechanically safe fixes carried by `result` (unused-include
/// removals, missing direct-include insertions) to the files under `root`.
/// Returns the number of edits applied.
int ApplyFixes(const std::filesystem::path& root, const LintResult& result);

/// Outcome of the --fix loop. `converged` is false when fixable diagnostics
/// remain after `passes` rounds — the CLI must exit nonzero in that case
/// instead of silently leaving the tree half-fixed.
struct FixLoopResult {
  int passes = 0;        // ApplyFixes rounds actually run
  int edits = 0;         // total edits across all rounds
  bool converged = true; // no fixable diagnostics remain
  LintResult result;     // final lint state after the last round
};

/// Runs lint, applies fixes, and re-lints until no fixable diagnostics
/// remain or `max_passes` rounds have run. A round that applies zero edits
/// while fixable diagnostics remain also stops the loop (the fixes are not
/// actually reaching the files — looping further cannot converge).
FixLoopResult FixUntilConverged(const Options& options, int max_passes = 2);

/// Test seam: same loop with an injectable lint runner (arguments: none;
/// returns the LintResult for the current tree state).
FixLoopResult FixUntilConverged(const std::filesystem::path& root,
                                const std::function<LintResult()>& run_lint,
                                int max_passes = 2);

}  // namespace clouddb::lint

#endif  // CLOUDDB_TOOLS_LINT_LINTER_H_
