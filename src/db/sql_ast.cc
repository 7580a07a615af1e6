#include "db/sql_ast.h"

#include "common/str_util.h"
#include "db/value.h"

namespace clouddb::db {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggregateFnToString(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCountStar:
      return "COUNT";
    case AggregateFn::kMin:
      return "MIN";
    case AggregateFn::kMax:
      return "MAX";
    case AggregateFn::kSum:
      return "SUM";
    case AggregateFn::kAvg:
      return "AVG";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumn(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumnRef;
  e->column = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::MakeFunction(
    std::string name, std::vector<std::unique_ptr<Expr>> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kFunctionCall;
  e->function = ToUpper(name);
  e->args = std::move(args);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                       std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::unique_ptr<Expr> Expr::MakeParameter(size_t index) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kParameter;
  e->param_index = index;
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToSqlLiteral();
    case Kind::kColumnRef:
      return column;
    case Kind::kFunctionCall: {
      std::string out = function + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kBinary:
      return StrFormat("(%s %s %s)", lhs->ToString().c_str(),
                       BinaryOpToString(op), rhs->ToString().c_str());
    case Kind::kIsNull:
      return StrFormat("(%s IS %sNULL)", lhs->ToString().c_str(),
                       is_null_negated ? "NOT " : "");
    case Kind::kNot:
      return StrFormat("(NOT %s)", lhs->ToString().c_str());
    case Kind::kInList: {
      std::string out = StrFormat("(%s %sIN (", lhs->ToString().c_str(),
                                  is_null_negated ? "NOT " : "");
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      out += "))";
      return out;
    }
    case Kind::kParameter:
      return "?";
  }
  return "?";
}

ExprPtr CloneExpr(const Expr& expr) {
  auto out = std::make_unique<Expr>();
  out->kind = expr.kind;
  out->literal = expr.literal;
  out->column = expr.column;
  out->function = expr.function;
  out->op = expr.op;
  out->is_null_negated = expr.is_null_negated;
  out->param_index = expr.param_index;
  for (const auto& arg : expr.args) out->args.push_back(CloneExpr(*arg));
  if (expr.lhs != nullptr) out->lhs = CloneExpr(*expr.lhs);
  if (expr.rhs != nullptr) out->rhs = CloneExpr(*expr.rhs);
  return out;
}

bool IsWriteStatement(const Statement& stmt) {
  return !std::holds_alternative<SelectStatement>(stmt);
}

std::string TargetTable(const Statement& stmt) {
  return std::visit([](const auto& s) { return s.table; }, stmt);
}

}  // namespace clouddb::db
