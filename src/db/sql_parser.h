#ifndef CLOUDDB_DB_SQL_PARSER_H_
#define CLOUDDB_DB_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "db/sql_ast.h"
#include "db/sql_lexer.h"

namespace clouddb::db {

/// Parses one SQL statement (an optional trailing ';' is accepted).
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
/// TYPE is INT | BIGINT (64-bit int), DOUBLE or TEXT (string). op is one of
/// = < <= > >=. A value is a literal (a number, which carries its own sign,
/// a 'string' or NULL) or NOW_MICROS(). ORDER BY sorts ascending. The LIMIT
/// value is checked when the statement executes, so a bad count fails alike
/// with the statement cache on or off.
///
/// Everything else fails to parse, among it OR, NOT, IN, BETWEEN, IS NULL,
/// != and <>, arithmetic and parentheses, `value op col`, functions other
/// than NOW_MICROS, aggregates other than COUNT(*), ASC and DESC, the types
/// VARCHAR and TIMESTAMP, and UPDATE, DELETE, DROP TABLE and TRUNCATE
/// (tables are append-only).
Result<Statement> ParseSql(const std::string& sql);

/// Parses an already-tokenized statement. Used by the statement cache, which
/// tokenizes once to fingerprint and then parses the literal-masked token
/// stream (kParameter tokens become Operand::kParameter placeholders).
Result<Statement> ParseTokens(std::vector<Token> tokens);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_PARSER_H_
