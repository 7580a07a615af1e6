#include "repl/cost_model.h"

#include "common/str_util.h"
#include "common/time_types.h"
#include "db/sql_ast.h"

namespace clouddb::repl {

SimDuration CostModel::EstimateStatement(const db::Statement& stmt) const {
  if (std::holds_alternative<db::SelectStatement>(stmt)) return select_cost;
  if (std::holds_alternative<db::InsertStatement>(stmt)) return insert_cost;
  return ddl_cost;
}

SimDuration CostModel::EstimateWritesetApply() const {
  return writeset_apply_cost + writeset_row_cost;
}

SimDuration CostModel::EstimateApply(const db::Statement& stmt) const {
  auto it = apply_cost_by_table.find(ToLower(db::TargetTable(stmt)));
  if (it != apply_cost_by_table.end()) return it->second;
  return static_cast<SimDuration>(
      apply_factor * static_cast<double>(EstimateStatement(stmt)));
}

}  // namespace clouddb::repl
