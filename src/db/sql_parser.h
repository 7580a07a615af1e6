#ifndef CLOUDDB_DB_SQL_PARSER_H_
#define CLOUDDB_DB_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "db/sql_ast.h"

namespace clouddb::db {

/// Parses one SQL statement (an optional trailing ';' is accepted) into a
/// template and this text's literal values: each number or string literal
/// becomes an Operand::kParameter slot, numbered in text order, and its
/// value the matching element of the call's params. This is the form a
/// statement cache hit returns, so a statement runs alike with the cache on
/// or off.
///
/// Supported grammar (keywords case-insensitive):
///
///   CREATE TABLE t (col TYPE [PRIMARY KEY | NOT NULL], ...)
///   CREATE INDEX idx ON t (col)
///   INSERT INTO t [(cols)] VALUES (value, ...)
///   SELECT * | COUNT(*) | cols FROM t
///       [WHERE col op value [AND col op value ...]] [ORDER BY col]
///       [LIMIT value]
///
/// TYPE is INT | BIGINT (64-bit int) or TEXT (string). op is one of
/// = < <= > >=. A value is a literal (an integer, which carries its own
/// sign, a 'string' or NULL) or NOW_MICROS(). ORDER BY sorts ascending. The
/// LIMIT value is checked when the statement executes.
///
/// Everything else fails to parse, among it OR, NOT, IN, BETWEEN, IS NULL,
/// != and <>, arithmetic and parentheses, `value op col`, functions other
/// than NOW_MICROS, aggregates other than COUNT(*), ASC and DESC, decimal
/// and exponent numbers (1.5, .5, 1e3), the types DOUBLE, VARCHAR and
/// TIMESTAMP, and UPDATE, DELETE, DROP TABLE and TRUNCATE (tables are
/// append-only).
Result<PreparedCall> ParseSql(const std::string& sql);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_PARSER_H_
