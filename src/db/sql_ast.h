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

/// Binary operators supported in expressions and WHERE predicates.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinaryOpToString(BinaryOp op);

/// Expression tree node. A tagged struct rather than a class hierarchy —
/// the expression language is small and closed.
struct Expr {
  enum class Kind {
    kLiteral,       // `literal`
    kColumnRef,     // `column`
    kFunctionCall,  // `function(args...)`, function upper-cased
    kBinary,        // `lhs op rhs`
    kIsNull,        // `lhs IS [NOT] NULL`
    kNot,           // `NOT lhs`
    kInList,        // `lhs [NOT] IN (args...)`; is_null_negated = NOT IN
    kParameter,     // `?` — a masked literal in a cached statement template,
                    // bound per execution from PreparedCall::params
  };

  Kind kind = Kind::kLiteral;
  Value literal;
  std::string column;
  std::string function;
  std::vector<std::unique_ptr<Expr>> args;
  BinaryOp op = BinaryOp::kEq;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  bool is_null_negated = false;  // kIsNull/kInList: true for IS NOT NULL / NOT IN
  size_t param_index = 0;        // kParameter: slot in the bound param vector

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumn(std::string name);
  static std::unique_ptr<Expr> MakeFunction(
      std::string name, std::vector<std::unique_ptr<Expr>> args);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> lhs,
                                          std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> MakeParameter(size_t index);

  /// Re-renders as SQL (used in error messages and tests).
  std::string ToString() const;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Deep copy of an expression tree.
ExprPtr CloneExpr(const Expr& expr);

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
  std::vector<ExprPtr> values;
};

/// Aggregate functions usable in a SELECT list.
enum class AggregateFn {
  kCountStar,  // COUNT(*)
  kMin,
  kMax,
  kSum,
  kAvg,
};

const char* AggregateFnToString(AggregateFn fn);

/// One item of an aggregate SELECT list, e.g. MIN(age).
struct AggregateItem {
  AggregateFn fn = AggregateFn::kCountStar;
  std::string column;  // empty for COUNT(*)
};

struct SelectStatement {
  std::string table;
  bool star = false;        // SELECT *
  bool count_star = false;  // SELECT COUNT(*) and nothing else
  std::vector<std::string> columns;
  /// Non-empty = aggregate query (mixing aggregates and plain columns is
  /// rejected by the parser; there is no GROUP BY).
  std::vector<AggregateItem> aggregates;
  ExprPtr where;            // may be null
  std::string order_by;     // empty = unordered
  bool order_desc = false;
  std::optional<int64_t> limit;
  /// Set instead of `limit` in a cached statement template: the LIMIT count
  /// is a masked literal, resolved from the bound params at execution.
  std::optional<size_t> limit_param;
};

/// A parsed SQL statement. Move-only (expressions own their children).
/// Tables are append-only: INSERT is the one row write, and CREATE TABLE and
/// CREATE INDEX are the only DDL.
using Statement = std::variant<CreateTableStatement, CreateIndexStatement,
                               InsertStatement, SelectStatement>;

/// True for statements that modify data or schema (and therefore must be
/// written to the binlog and routed to the master): everything but SELECT.
bool IsWriteStatement(const Statement& stmt);

/// The table a statement targets, as spelled in the text. Callers
/// lower-case it for catalog lookups.
std::string TargetTable(const Statement& stmt);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_AST_H_
