#ifndef CLOUDDB_DB_WRITESET_APPLY_H_
#define CLOUDDB_DB_WRITESET_APPLY_H_

#include <cstdint>

#include "common/result.h"
#include "db/writeset.h"

namespace clouddb::db {

class Database;

/// Row-based replication's slave-side fast path: applies one covered
/// statement's row ops to `db` through Table::ApplyRowDelta — no lexer, no
/// parser, no planner, no expression evaluation. This translation unit is
/// forbidden from including sql_parser/sql_lexer by the clouddb-apply-noparse
/// lint rule.
///
/// The statement applies atomically, as the executor's undo log makes
/// statement apply: on a mid-statement failure (a replica that diverged from
/// the master's before images, or a missing table) every op already applied
/// is inverted. Returns the number of rows affected.
Result<int64_t> ApplyStatementWriteset(Database* db,
                                       const StatementWriteset& ws);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_WRITESET_APPLY_H_
