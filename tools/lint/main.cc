// clouddb_lint — project-specific static analyzer for the clouddb tree.
//
// Usage:
//   clouddb_lint [--root DIR] [--dirs d1,d2,...] [--json] [--fix]
//                [--forbid-nolint] [--quiet]
//
// Scans src/, tools/, bench/, tests/, examples/ (or --dirs) under --root and
// prints one "file:line: rule: message" diagnostic per violation (--json
// emits the machine-readable form instead). Every rule runs at error
// severity. Exit status is 0 when no errors were found, 1 when errors were
// found (or, with --forbid-nolint, when any NOLINT suppression was needed —
// CI runs in that mode so merged code carries zero suppressions). --fix
// applies the mechanically safe include-hygiene fixes in place, re-lints,
// and repeats until no fixable diagnostics remain — exiting 1 if they fail
// to converge.

#include <iostream>
#include <sstream>
#include <string>

#include "linter.h"

int main(int argc, char** argv) {
  clouddb::lint::Options opts;
  bool forbid_nolint = false;
  bool quiet = false;
  bool json = false;
  bool fix = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--dirs" && i + 1 < argc) {
      std::istringstream ss(argv[++i]);
      std::string d;
      while (std::getline(ss, d, ','))
        if (!d.empty()) opts.dirs.push_back(d);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--forbid-nolint") {
      forbid_nolint = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: clouddb_lint [--root DIR] [--dirs d1,d2,...] "
                   "[--json] [--fix] [--forbid-nolint] [--quiet]\n";
      return 0;
    } else {
      std::cerr << "clouddb_lint: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  clouddb::lint::LintResult res;
  bool fix_diverged = false;
  if (fix) {
    clouddb::lint::FixLoopResult loop = clouddb::lint::FixUntilConverged(opts);
    if (!quiet) {
      std::cerr << "clouddb_lint: applied " << loop.edits << " fix(es) in "
                << loop.passes << " pass(es)\n";
    }
    if (!loop.converged) {
      fix_diverged = true;
      std::cerr << "clouddb_lint: fixes did not converge after " << loop.passes
                << " pass(es); fixable diagnostics remain — fix them by hand "
                   "or re-run --fix\n";
    }
    res = std::move(loop.result);
  } else {
    res = clouddb::lint::RunLint(opts);
  }

  if (json) {
    std::cout << clouddb::lint::ToJson(res);
  } else {
    for (const auto& d : res.diagnostics) std::cout << d.ToString() << "\n";
  }
  if (!quiet) {
    std::cerr << "clouddb_lint: scanned " << res.files_scanned << " files, "
              << res.errors << " error(s), " << res.suppressions_used
              << " NOLINT suppression(s) used\n";
  }
  if (fix_diverged) return 1;
  if (res.errors > 0) return 1;
  if (forbid_nolint && res.suppressions_used > 0) {
    std::cerr << "clouddb_lint: NOLINT suppressions are forbidden in this "
                 "mode; fix the code or remove them before merging\n";
    return 1;
  }
  return 0;
}
