#ifndef CLOUDDB_TOOLS_LINT_RULES_FLOW_H_
#define CLOUDDB_TOOLS_LINT_RULES_FLOW_H_

#include <vector>

#include "frontend.h"
#include "linter.h"

namespace clouddb::lint {

/// One scanned file with its structural index, as seen by the flow passes.
struct AnalyzedFile {
  const SourceFile* file = nullptr;
  const FileIndex* index = nullptr;
};

/// clouddb-dangling-capture: lambdas handed to the event kernel
/// (Simulation::ScheduleAt/ScheduleAfter, Timer::Bind, PeriodicTimer::Start,
/// EventCallback) that capture `this`, references, or raw pointers while the
/// owning class has no cancelling sim::Timer/PeriodicTimer member and no
/// destructor-side Cancel — the callback can fire after the object dies.
/// Scoped to src/ (test/bench/example stack frames own their Simulation and
/// outlive Run()).
void CheckDanglingCaptures(const std::vector<AnalyzedFile>& files,
                           std::vector<Diagnostic>* out);

/// clouddb-include-hygiene (IWYU-lite): quoted includes none of whose
/// declared symbols are referenced (mechanically removable), and in-tree
/// symbols that are used but reach the file only transitively (mechanically
/// insertable). Both carry structured fix info for `clouddb_lint --fix`.
void CheckIncludeHygiene(const std::vector<AnalyzedFile>& files,
                         std::vector<Diagnostic>* out);

}  // namespace clouddb::lint

#endif  // CLOUDDB_TOOLS_LINT_RULES_FLOW_H_
