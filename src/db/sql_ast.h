#ifndef CLOUDDB_DB_SQL_AST_H_
#define CLOUDDB_DB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {

/// One value of a statement: an INSERT value, the right-hand side of a WHERE
/// comparison, or the LIMIT count. A statement holds no literal values: the
/// parser numbers each literal in text order, and an execution binds the
/// values from PreparedCall::params, so one parsed statement serves every
/// text of its shape.
struct Operand {
  enum class Kind {
    kParameter,  // a number (carrying its own sign) or a string
    kNull,       // NULL
    kNowMicros,  // NOW_MICROS(), read from the executing replica's clock
  };

  Kind kind = Kind::kParameter;
  size_t param_index = 0;  // kParameter: slot in PreparedCall::params
};

/// The comparison operators of a WHERE clause.
enum class CompareOp { kEq, kLt, kLe, kGt, kGe };

/// One WHERE comparison, `column op value`.
struct Comparison {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Operand value;
};

// --- Statements -----------------------------------------------------------

struct CreateTableStatement {
  std::string table;
  std::vector<ColumnDef> columns;
};

struct CreateIndexStatement {
  std::string index;
  std::string table;
  std::string column;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;  // empty = schema order
  std::vector<Operand> values;
};

struct SelectStatement {
  std::string table;
  bool star = false;        // SELECT *
  bool count_star = false;  // SELECT COUNT(*)
  std::vector<std::string> columns;  // otherwise, the projected columns
  std::vector<Comparison> where;     // joined by AND; empty = no WHERE
  std::string order_by;              // ascending; empty = unordered
  std::optional<Operand> limit;
};

/// A parsed SQL statement. Tables are append-only: INSERT is the one row
/// write, and CREATE TABLE and CREATE INDEX are the only DDL.
using Statement = std::variant<CreateTableStatement, CreateIndexStatement,
                               InsertStatement, SelectStatement>;

/// A statement and the literal values of one text of it, bound positionally
/// to its parameters: what ParseSql returns, and what a statement cache hit
/// returns with the shared template of the text's shape. The statement is
/// immutable, and one template serves every text of its shape.
struct PreparedCall {
  std::shared_ptr<const Statement> statement;
  std::vector<Value> params;
};

/// True for statements that modify data or schema (and therefore must be
/// written to the binlog and routed to the master): everything but SELECT.
inline bool IsWriteStatement(const Statement& stmt) {
  return !std::holds_alternative<SelectStatement>(stmt);
}

/// True for CREATE TABLE and CREATE INDEX, which change the catalog.
inline bool IsDdl(const Statement& stmt) {
  return std::holds_alternative<CreateTableStatement>(stmt) ||
         std::holds_alternative<CreateIndexStatement>(stmt);
}

/// The table a statement targets, as spelled in the text. Callers
/// lower-case it for catalog lookups.
inline std::string TargetTable(const Statement& stmt) {
  return std::visit([](const auto& s) { return s.table; }, stmt);
}

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_AST_H_
