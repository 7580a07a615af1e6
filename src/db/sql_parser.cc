#include "db/sql_parser.h"

#include <utility>

#include "common/str_util.h"
#include "db/sql_lexer.h"
#include "common/result.h"
#include "common/status.h"
#include "db/schema.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    const Token& t = Peek();
    Result<Statement> result = [&]() -> Result<Statement> {
      if (t.IsKeyword("CREATE")) return ParseCreate();
      if (t.IsKeyword("INSERT")) return ParseInsert();
      if (t.IsKeyword("SELECT")) return ParseSelect();
      return Error("expected a statement");
    }();
    if (!result.ok()) return result;
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return result;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEnd
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("parse error at offset %zu: %s (near '%s')", Peek().offset,
                  msg.c_str(), Peek().text.c_str()));
  }

  Status ExpectKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) return Error(StrFormat("expected %s", kw));
    Advance();
    return Status::Ok();
  }
  Status ExpectSymbol(const char* sym) {
    if (!Peek().IsSymbol(sym)) return Error(StrFormat("expected '%s'", sym));
    Advance();
    return Status::Ok();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier");
    }
    return Advance().text;
  }

  Result<Statement> ParseCreate() {
    Advance();  // CREATE
    if (Peek().IsKeyword("TABLE")) return ParseCreateTable();
    if (Peek().IsKeyword("INDEX")) return ParseCreateIndex();
    return Error("expected TABLE or INDEX after CREATE");
  }

  Result<Statement> ParseCreateTable() {
    Advance();  // TABLE
    CreateTableStatement stmt;
    CLOUDDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      ColumnDef col;
      CLOUDDB_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      CLOUDDB_ASSIGN_OR_RETURN(col.type, ParseType());
      while (true) {
        if (Peek().IsKeyword("PRIMARY")) {
          Advance();
          CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("KEY"));
          col.primary_key = true;
        } else if (Peek().IsKeyword("NOT")) {
          Advance();
          CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
          col.not_null = true;
        } else {
          break;
        }
      }
      stmt.columns.push_back(std::move(col));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }

  Result<ValueType> ParseType() {
    const Token& t = Peek();
    if (t.IsKeyword("INT") || t.IsKeyword("BIGINT") ||
        t.IsKeyword("TIMESTAMP")) {
      Advance();
      return ValueType::kInt64;
    }
    if (t.IsKeyword("DOUBLE")) {
      Advance();
      return ValueType::kDouble;
    }
    if (t.IsKeyword("TEXT")) {
      Advance();
      return ValueType::kString;
    }
    if (t.IsKeyword("VARCHAR")) {
      Advance();
      if (Peek().IsSymbol("(")) {  // length is accepted and ignored
        Advance();
        if (Peek().type != TokenType::kInteger) {
          return Error("expected length in VARCHAR(n)");
        }
        Advance();
        CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      return ValueType::kString;
    }
    return Error("expected column type");
  }

  Result<Statement> ParseCreateIndex() {
    Advance();  // INDEX
    CreateIndexStatement stmt;
    CLOUDDB_ASSIGN_OR_RETURN(stmt.index, ExpectIdentifier());
    CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
    CLOUDDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
    CLOUDDB_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier());
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStatement stmt;
    CLOUDDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (Peek().IsSymbol("(")) {
      Advance();
      while (true) {
        CLOUDDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt.values.push_back(std::move(e));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }

  /// True when the next tokens start an aggregate item, e.g. "MIN(".
  bool AtAggregate() const {
    const Token& t = Peek();
    return (t.IsKeyword("COUNT") || t.IsKeyword("MIN") || t.IsKeyword("MAX") ||
            t.IsKeyword("SUM") || t.IsKeyword("AVG")) &&
           Peek(1).IsSymbol("(");
  }

  Result<AggregateItem> ParseAggregate() {
    AggregateItem item;
    const Token& t = Advance();
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
    if (t.IsKeyword("COUNT")) {
      item.fn = AggregateFn::kCountStar;
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("*"));
    } else {
      if (t.IsKeyword("MIN")) item.fn = AggregateFn::kMin;
      else if (t.IsKeyword("MAX")) item.fn = AggregateFn::kMax;
      else if (t.IsKeyword("SUM")) item.fn = AggregateFn::kSum;
      else item.fn = AggregateFn::kAvg;
      CLOUDDB_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return item;
  }

  Result<Statement> ParseSelect() {
    Advance();  // SELECT
    SelectStatement stmt;
    if (Peek().IsSymbol("*")) {
      Advance();
      stmt.star = true;
    } else if (AtAggregate()) {
      while (true) {
        CLOUDDB_ASSIGN_OR_RETURN(AggregateItem item, ParseAggregate());
        stmt.aggregates.push_back(std::move(item));
        if (Peek().IsSymbol(",")) {
          Advance();
          if (!AtAggregate()) {
            return Error("cannot mix aggregates and plain columns");
          }
          continue;
        }
        break;
      }
      stmt.count_star = stmt.aggregates.size() == 1 &&
                        stmt.aggregates[0].fn == AggregateFn::kCountStar;
    } else {
      while (true) {
        CLOUDDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          if (AtAggregate()) {
            return Error("cannot mix aggregates and plain columns");
          }
          continue;
        }
        break;
      }
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    CLOUDDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(stmt.where, ParsePredicate());
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      CLOUDDB_ASSIGN_OR_RETURN(stmt.order_by, ExpectIdentifier());
      if (Peek().IsKeyword("DESC")) {
        Advance();
        stmt.order_desc = true;
      } else if (Peek().IsKeyword("ASC")) {
        Advance();
      }
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      if (Peek().type == TokenType::kParameter) {
        // Masked template: the count is bound (and range-checked) at
        // execution time.
        stmt.limit_param = static_cast<size_t>(Advance().int_value);
      } else {
        if (Peek().type != TokenType::kInteger) {
          return Error("expected integer after LIMIT");
        }
        stmt.limit = Advance().int_value;
        if (*stmt.limit < 0) return Error("LIMIT must be non-negative");
      }
    }
    return Statement(std::move(stmt));
  }

  /// predicate := and_chain (OR and_chain)*    — AND binds tighter than OR
  Result<ExprPtr> ParsePredicate() {
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndChain());
    while (Peek().IsKeyword("OR")) {
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndChain());
      lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// and_chain := negation (AND negation)*
  Result<ExprPtr> ParseAndChain() {
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNegation());
    while (Peek().IsKeyword("AND")) {
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNegation());
      lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// negation := [NOT] comparison
  Result<ExprPtr> ParseNegation() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseNegation());
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kNot;
      e->lhs = std::move(inner);
      return ExprPtr(std::move(e));
    }
    return ParseComparison();
  }

  /// comparison := expr (cmp-op expr | IS [NOT] NULL | [NOT] IN (list)
  ///               | [NOT] BETWEEN expr AND expr)
  Result<ExprPtr> ParseComparison() {
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseExpr());
    // Postfix [NOT] IN / BETWEEN.
    bool postfix_negated = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN"))) {
      Advance();
      postfix_negated = true;
    }
    if (Peek().IsKeyword("IN")) {
      Advance();
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInList;
      e->is_null_negated = postfix_negated;
      e->lhs = std::move(lhs);
      while (true) {
        CLOUDDB_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        e->args.push_back(std::move(item));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return ExprPtr(std::move(e));
    }
    if (Peek().IsKeyword("BETWEEN")) {
      Advance();
      // Desugared to (lhs >= lo AND lhs <= hi), which the planner can turn
      // into an index range scan. The bounds are plain expressions, so the
      // inner AND is unambiguous.
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lo, ParseExpr());
      CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("AND"));
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr hi, ParseExpr());
      ExprPtr lhs_copy = CloneExpr(*lhs);
      ExprPtr range = Expr::MakeBinary(
          BinaryOp::kAnd,
          Expr::MakeBinary(BinaryOp::kGe, std::move(lhs), std::move(lo)),
          Expr::MakeBinary(BinaryOp::kLe, std::move(lhs_copy), std::move(hi)));
      if (!postfix_negated) return range;
      auto negated = std::make_unique<Expr>();
      negated->kind = Expr::Kind::kNot;
      negated->lhs = std::move(range);
      return ExprPtr(std::move(negated));
    }
    if (postfix_negated) {
      return Error("expected IN or BETWEEN after NOT");
    }
    const Token& t = Peek();
    if (t.IsKeyword("IS")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kIsNull;
      if (Peek().IsKeyword("NOT")) {
        Advance();
        e->is_null_negated = true;
      }
      CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      e->lhs = std::move(lhs);
      return ExprPtr(std::move(e));
    }
    BinaryOp op;
    if (t.IsSymbol("=")) {
      op = BinaryOp::kEq;
    } else if (t.IsSymbol("!=") || t.IsSymbol("<>")) {
      op = BinaryOp::kNe;
    } else if (t.IsSymbol("<")) {
      op = BinaryOp::kLt;
    } else if (t.IsSymbol("<=")) {
      op = BinaryOp::kLe;
    } else if (t.IsSymbol(">")) {
      op = BinaryOp::kGt;
    } else if (t.IsSymbol(">=")) {
      op = BinaryOp::kGe;
    } else {
      // Bare expression (e.g. the inside of arithmetic parentheses); the
      // caller decides whether what follows is acceptable.
      return lhs;
    }
    Advance();
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
    return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  /// expr := term ((+|-) term)*
  Result<ExprPtr> ParseExpr() {
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTerm());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      BinaryOp op = Peek().IsSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseTerm());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// term := factor ((*|/) factor)*
  Result<ExprPtr> ParseTerm() {
    CLOUDDB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseFactor());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      BinaryOp op = Peek().IsSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseFactor());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// factor := literal | NULL | [-] number | identifier [ '(' args ')' ]
  ///         | '(' predicate ')'
  Result<ExprPtr> ParseFactor() {
    const Token& t = Peek();
    if (t.IsSymbol("(")) {
      Advance();
      // A parenthesized sub-expression may be a full boolean predicate
      // ("(a = 1 OR b = 2)"); when no boolean operator follows the inner
      // expression this degrades to plain arithmetic grouping.
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr e, ParsePredicate());
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    if (t.IsSymbol("-")) {
      Advance();
      // Unary minus: parse the operand and negate via 0 - x.
      CLOUDDB_ASSIGN_OR_RETURN(ExprPtr e, ParseFactor());
      return Expr::MakeBinary(BinaryOp::kSub,
                              Expr::MakeLiteral(Value(int64_t{0})),
                              std::move(e));
    }
    if (t.type == TokenType::kInteger) {
      Advance();
      return Expr::MakeLiteral(Value(t.int_value));
    }
    if (t.type == TokenType::kDouble) {
      Advance();
      return Expr::MakeLiteral(Value(t.double_value));
    }
    if (t.type == TokenType::kString) {
      Advance();
      return Expr::MakeLiteral(Value(t.text));
    }
    if (t.type == TokenType::kParameter) {
      Advance();
      return Expr::MakeParameter(static_cast<size_t>(t.int_value));
    }
    if (t.IsKeyword("NULL")) {
      Advance();
      return Expr::MakeLiteral(Value::Null());
    }
    if (t.type == TokenType::kIdentifier) {
      std::string name = Advance().text;
      if (Peek().IsSymbol("(")) {
        Advance();
        std::vector<ExprPtr> args;
        if (!Peek().IsSymbol(")")) {
          while (true) {
            CLOUDDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
            if (Peek().IsSymbol(",")) {
              Advance();
              continue;
            }
            break;
          }
        }
        CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Expr::MakeFunction(std::move(name), std::move(args));
      }
      return Expr::MakeColumn(std::move(name));
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseSql(const std::string& sql) {
  CLOUDDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<Statement> ParseTokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace clouddb::db
