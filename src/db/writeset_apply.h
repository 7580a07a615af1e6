#ifndef CLOUDDB_DB_WRITESET_APPLY_H_
#define CLOUDDB_DB_WRITESET_APPLY_H_

#include "common/status.h"
#include "db/writeset.h"

namespace clouddb::db {

class Database;

/// Row-based replication's slave-side fast path: inserts one covered
/// statement's captured row into `db` through Table::Insert — no lexer, no
/// parser, no planner, no expression evaluation. This translation unit is
/// forbidden from including sql_parser/sql_lexer by the clouddb-apply-noparse
/// lint rule.
///
/// The one insert is the apply's only change, so an apply that fails (a
/// missing table, or a duplicate key on a replica that diverged) has changed
/// nothing.
Status ApplyStatementWriteset(Database* db, const StatementWriteset& ws);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_WRITESET_APPLY_H_
