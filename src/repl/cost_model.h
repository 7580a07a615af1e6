#ifndef CLOUDDB_REPL_COST_MODEL_H_
#define CLOUDDB_REPL_COST_MODEL_H_

#include <map>
#include <string>

#include "common/time_types.h"
#include "db/sql_ast.h"

namespace clouddb::repl {

/// Nominal CPU cost of executing statements on a database node, expressed in
/// microseconds at instance speed 1.0 (an EC2 small instance). The Cloudstone
/// workload overrides these per operation; the cost model supplies defaults
/// and, importantly, the cost of *applying* replicated writesets on slaves —
/// the second load source the paper identifies on each slave.
struct CostModel {
  SimDuration select_cost = Millis(60);
  SimDuration insert_cost = Millis(30);
  SimDuration ddl_cost = Millis(5);

  /// Slave apply cost = apply_factor * the statement's nominal cost
  /// (statement re-execution skips the application round trip, connection
  /// handling and result serialization the master performed).
  double apply_factor = 0.5;

  /// Per-table overrides for apply cost (e.g. the tiny heartbeat table).
  /// Applies to statement apply only — covered writesets bypass it (they
  /// never target the function-bearing tables the overrides exist for).
  std::map<std::string, SimDuration> apply_cost_by_table;

  /// Direct row-image apply (row-based mode): the row insert and its index
  /// maintenance only — no lexing, parsing, planning, or expression
  /// evaluation. A covered statement inserts one row and is charged the
  /// statement term plus the row term.
  SimDuration writeset_apply_cost = Millis(2);
  SimDuration writeset_row_cost = Micros(100);

  /// Default execution cost by statement kind.
  SimDuration EstimateStatement(const db::Statement& stmt) const;

  /// Cost of applying a replicated statement on a slave.
  SimDuration EstimateApply(const db::Statement& stmt) const;

  /// Cost of directly applying one covered writeset statement on a slave.
  SimDuration EstimateWritesetApply() const;
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_COST_MODEL_H_
