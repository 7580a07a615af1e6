#ifndef CLOUDDB_DB_WRITESET_APPLY_H_
#define CLOUDDB_DB_WRITESET_APPLY_H_

#include <cstdint>

#include "common/result.h"
#include "db/writeset.h"

namespace clouddb::db {

class Database;
class Session;

/// Row-based replication's slave-side fast path: applies one covered
/// statement's row ops to `db` through Table::ApplyRowDelta — no lexer, no
/// parser, no planner, no expression evaluation. This translation unit is
/// forbidden from including sql_parser/sql_lexer by the clouddb-apply-noparse
/// lint rule.
///
/// The statement applies atomically: table write locks are taken under
/// `session`'s identity first (2PL parity with statement apply), every op
/// already applied is inverted on a mid-statement failure, and all locks are
/// released before returning. Returns the number of rows affected.
Result<int64_t> ApplyStatementWriteset(Database* db, Session* session,
                                       const StatementWriteset& ws);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_WRITESET_APPLY_H_
