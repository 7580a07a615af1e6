#include "db/sql_parser.h"

#include <memory>
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

  Result<PreparedCall> ParseStatement() {
    const Token& t = Peek();
    Result<Statement> result = [&]() -> Result<Statement> {
      if (t.IsKeyword("CREATE")) return ParseCreate();
      if (t.IsKeyword("INSERT")) return ParseInsert();
      if (t.IsKeyword("SELECT")) return ParseSelect();
      return Error("expected a statement");
    }();
    if (!result.ok()) return result.status();
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return PreparedCall{
        std::make_shared<const Statement>(std::move(result).value()),
        std::move(params_)};
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
    ValueType type = ValueType::kNull;
    if (t.IsKeyword("INT") || t.IsKeyword("BIGINT")) {
      type = ValueType::kInt64;
    } else if (t.IsKeyword("TEXT")) {
      type = ValueType::kString;
    } else {
      return Error("expected column type");
    }
    Advance();
    return type;
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
      CLOUDDB_ASSIGN_OR_RETURN(Operand value, ParseOperand());
      stmt.values.push_back(std::move(value));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseSelect() {
    Advance();  // SELECT
    SelectStatement stmt;
    if (Peek().IsSymbol("*")) {
      Advance();
      stmt.star = true;
    } else if (Peek().IsKeyword("COUNT")) {
      Advance();
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("("));
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol("*"));
      CLOUDDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.count_star = true;
    } else {
      while (true) {
        CLOUDDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    CLOUDDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (Peek().IsKeyword("WHERE")) {
      do {
        Advance();  // WHERE or AND
        CLOUDDB_ASSIGN_OR_RETURN(Comparison c, ParseComparison());
        stmt.where.push_back(std::move(c));
      } while (Peek().IsKeyword("AND"));
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      CLOUDDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      CLOUDDB_ASSIGN_OR_RETURN(stmt.order_by, ExpectIdentifier());
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      CLOUDDB_ASSIGN_OR_RETURN(stmt.limit, ParseOperand());
    }
    return Statement(std::move(stmt));
  }

  /// comparison := column (= | < | <= | > | >=) operand
  Result<Comparison> ParseComparison() {
    Comparison c;
    CLOUDDB_ASSIGN_OR_RETURN(c.column, ExpectIdentifier());
    const Token& t = Peek();
    if (t.IsSymbol("=")) {
      c.op = CompareOp::kEq;
    } else if (t.IsSymbol("<")) {
      c.op = CompareOp::kLt;
    } else if (t.IsSymbol("<=")) {
      c.op = CompareOp::kLe;
    } else if (t.IsSymbol(">")) {
      c.op = CompareOp::kGt;
    } else if (t.IsSymbol(">=")) {
      c.op = CompareOp::kGe;
    } else {
      return Error("expected comparison operator");
    }
    Advance();
    CLOUDDB_ASSIGN_OR_RETURN(c.value, ParseOperand());
    return c;
  }

  /// operand := number | 'string' | NULL | NOW_MICROS()
  /// A number or string takes the next parameter slot, and its value goes to
  /// params_. The parser consumes every literal of a statement that parses,
  /// in text order, so the slots number the literals as the fingerprint scan
  /// collects them.
  Result<Operand> ParseOperand() {
    const Token& t = Peek();
    Operand op;
    if (t.type == TokenType::kInteger) {
      op.param_index = params_.size();
      params_.emplace_back(t.int_value);
    } else if (t.type == TokenType::kString) {
      op.param_index = params_.size();
      params_.emplace_back(t.text);
    } else if (t.IsKeyword("NULL")) {
      op.kind = Operand::Kind::kNull;
    } else if (t.type == TokenType::kIdentifier &&
               EqualsIgnoreCase(t.text, "NOW_MICROS") &&
               Peek(1).IsSymbol("(") && Peek(2).IsSymbol(")")) {
      op.kind = Operand::Kind::kNowMicros;
      Advance();
      Advance();
    } else {
      return Error("expected a literal or NOW_MICROS()");
    }
    Advance();
    return op;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<Value> params_;  // the literals consumed so far
};

}  // namespace

Result<PreparedCall> ParseSql(const std::string& sql) {
  CLOUDDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace clouddb::db
