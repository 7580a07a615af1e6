#ifndef CLOUDDB_TOOLS_LINT_RULES_INTERPROC_H_
#define CLOUDDB_TOOLS_LINT_RULES_INTERPROC_H_

#include <set>
#include <string>
#include <vector>

#include "callgraph.h"
#include "cfg.h"
#include "linter.h"
#include "rules_flow.h"

namespace clouddb::lint {

/// Shared analysis state for the interprocedural passes: the project call
/// graph (scoped to src/, so same-named helpers in bench/tools/tests never
/// pollute resolution) and one CFG per function definition, parallel to
/// CallGraph::functions. Built once per RunLint and handed to every pass.
struct InterprocContext {
  const std::vector<AnalyzedFile>* files = nullptr;
  CallGraph cg;
  std::vector<Cfg> cfgs;  // cfgs[i] belongs to cg.functions[i]
};

InterprocContext BuildInterprocContext(const std::vector<AnalyzedFile>& files);

/// clouddb-use-after-move: forward may-analysis of moved-from locals.
/// `std::move(v)` gens the moved state; assignment, re-declaration,
/// `&v` out-param passing, and v.reset/clear/assign kill it. Any read of a
/// local that is moved-from on *some* path is flagged (including a second
/// std::move — a double move). Lambda bodies are opaque (a capture-init
/// move still counts; uses inside the lambda refer to the capture).
void CheckUseAfterMove(const InterprocContext& ctx,
                       std::vector<Diagnostic>* out);

/// clouddb-status-path: a local assigned from a Status/Result-returning
/// function is flagged when the value is consumed on one path out of the
/// definition but silently dropped (overwritten or falls off the end unread)
/// on another — the half-checked pattern that [[nodiscard]] cannot see,
/// since the value was stored. Lambda bodies are opaque (their flow is not
/// the enclosing function's), and an `Ok()` initializer never counts as a
/// payload-carrying definition. `status_fns` is the unambiguous set of
/// Status/Result-returning names declared in headers.
void CheckStatusPath(const InterprocContext& ctx,
                     const std::set<std::string>& status_fns,
                     std::vector<Diagnostic>* out);

/// clouddb-determinism-taint: interprocedural taint from wall-clock/entropy
/// primitives. A function is tainted when its body touches a source or when
/// it calls a tainted function; every call site in a non-exempt src/ file
/// whose resolved target is tainted is flagged with the witness chain down
/// to the primitive. Complements the syntactic clouddb-wallclock/random
/// rules, which only see direct uses in the offending file.
void CheckDeterminismTaint(const InterprocContext& ctx,
                           std::vector<Diagnostic>* out);

}  // namespace clouddb::lint

#endif  // CLOUDDB_TOOLS_LINT_RULES_INTERPROC_H_
