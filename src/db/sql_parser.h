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
///   INSERT INTO t [(cols)] VALUES (expr, ...)
///   SELECT * | COUNT(*) | cols FROM t [WHERE pred] [ORDER BY col [ASC|DESC]]
///       [LIMIT n]
///
/// Tables are append-only: UPDATE, DELETE, DROP TABLE and TRUNCATE are not
/// statements, so their text fails to parse.
///
/// TYPE is INT | BIGINT | TIMESTAMP (64-bit int), DOUBLE,
/// TEXT | VARCHAR[(n)] (string).
///
/// pred is a conjunction: comparison (AND comparison)*, where comparison is
/// expr (= | != | <> | < | <= | > | >=) expr, or expr IS [NOT] NULL.
/// Expressions support +, -, *, / with the usual precedence, parentheses,
/// column references, literals, and function calls (e.g. NOW_MICROS()).
Result<Statement> ParseSql(const std::string& sql);

/// Parses an already-tokenized statement. Used by the statement cache, which
/// tokenizes once to fingerprint and then parses the literal-masked token
/// stream (kParameter tokens become Expr::kParameter placeholders; a
/// kParameter after LIMIT sets SelectStatement::limit_param).
Result<Statement> ParseTokens(std::vector<Token> tokens);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_PARSER_H_
