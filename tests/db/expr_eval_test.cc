#include "db/expr_eval.h"

#include <gtest/gtest.h>

#include "db/sql_parser.h"
#include "common/result.h"
#include "db/functions.h"
#include "db/schema.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

/// Parses `expr_sql` by wrapping it in a SELECT WHERE clause.
ExprPtr ParseExpr(const std::string& expr_sql) {
  auto r = ParseSql("SELECT * FROM t WHERE " + expr_sql);
  EXPECT_TRUE(r.ok()) << expr_sql << ": " << r.status().ToString();
  auto& sel = std::get<SelectStatement>(*r);
  return std::move(sel.where);
}

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() {
    auto schema = Schema::Create({
        {"id", ValueType::kInt64, false, true},
        {"name", ValueType::kString, false, false},
        {"score", ValueType::kDouble, false, false},
    });
    schema_ = std::move(schema).value();
    row_ = {Value(int64_t{7}), Value("ann"), Value(2.5)};
  }

  Result<Value> Eval(const std::string& expr_sql) {
    ExprPtr e = ParseExpr(expr_sql);
    return EvaluateExpr(*e, &schema_, &row_, funcs_);
  }
  Result<bool> Pred(const std::string& expr_sql) {
    ExprPtr e = ParseExpr(expr_sql);
    return EvaluatePredicate(*e, &schema_, &row_, funcs_);
  }

  Schema schema_;
  Row row_;
  FunctionRegistry funcs_;
};

TEST_F(ExprEvalTest, IntArithmeticStaysInt) {
  auto r = Eval("2 + 3 * 4 = 1");
  // The comparison wrapping forces a full expression; evaluate pieces:
  EXPECT_TRUE(r.ok());
  auto sum = Eval("id = 2 + 3 * 4");  // 14
  ASSERT_TRUE(sum.ok());
  // id(7) != 14 -> 0
  EXPECT_EQ(*sum, Value(int64_t{0}));
}

TEST_F(ExprEvalTest, ArithmeticValues) {
  EXPECT_TRUE(*Pred("id + 1 = 8"));
  EXPECT_TRUE(*Pred("id - 10 = -3"));
  EXPECT_TRUE(*Pred("id * 2 = 14"));
  EXPECT_TRUE(*Pred("id / 2 = 3.5"));  // division always real
  EXPECT_TRUE(*Pred("score * 4 = 10"));
}

TEST_F(ExprEvalTest, DivisionByZeroIsError) {
  auto r = Eval("id / 0 = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ExprEvalTest, ComparisonsProduceBooleanInts) {
  EXPECT_EQ(*Eval("id = 7"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("id != 7"), Value(int64_t{0}));
  EXPECT_EQ(*Eval("id < 8"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("id <= 7"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("id > 7"), Value(int64_t{0}));
  EXPECT_EQ(*Eval("id >= 8"), Value(int64_t{0}));
}

TEST_F(ExprEvalTest, StringComparisons) {
  EXPECT_TRUE(*Pred("name = 'ann'"));
  EXPECT_FALSE(*Pred("name = 'bob'"));
  EXPECT_TRUE(*Pred("name < 'bob'"));
  EXPECT_TRUE(*Pred("name > ''"));
  // A number never equals a string and ranks below every string.
  EXPECT_FALSE(*Pred("id = '7'"));
  EXPECT_TRUE(*Pred("id < 'x'"));
  EXPECT_TRUE(*Pred("name > 5"));
}

TEST_F(ExprEvalTest, NullComparisonsAreUnknown) {
  EXPECT_TRUE(Eval("NULL = 1")->is_null());
  EXPECT_TRUE(Eval("NULL != NULL")->is_null());
  EXPECT_TRUE(Eval("id + NULL = 7")->is_null());
  // ...and unknown predicates are false, whatever the operator or column.
  EXPECT_FALSE(*Pred("NULL = 1"));
  EXPECT_FALSE(*Pred("id = NULL"));
  EXPECT_FALSE(*Pred("id != NULL"));
  EXPECT_FALSE(*Pred("name < NULL"));
}

TEST_F(ExprEvalTest, ThreeValuedAnd) {
  EXPECT_EQ(*Eval("1 = 1 AND 2 = 2"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("1 = 1 AND 2 = 3"), Value(int64_t{0}));
  // false AND unknown = false (not unknown).
  EXPECT_EQ(*Eval("1 = 2 AND NULL = 1"), Value(int64_t{0}));
  // true AND unknown = unknown.
  EXPECT_TRUE(Eval("1 = 1 AND NULL = 1")->is_null());
}

TEST_F(ExprEvalTest, IsNullOperator) {
  EXPECT_TRUE(*Pred("NULL IS NULL"));
  EXPECT_FALSE(*Pred("id IS NULL"));
  EXPECT_TRUE(*Pred("id IS NOT NULL"));
  EXPECT_FALSE(*Pred("NULL IS NOT NULL"));
}

TEST_F(ExprEvalTest, ColumnResolutionErrors) {
  auto r = Eval("missing = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ExprEvalTest, ColumnOutsideRowContextFails) {
  ExprPtr e = ParseExpr("id = 1");
  auto r = EvaluateExpr(*e, nullptr, nullptr, funcs_);
  EXPECT_FALSE(r.ok());
}

TEST_F(ExprEvalTest, FunctionCalls) {
  EXPECT_TRUE(*Pred("ABS(0 - 5) = 5"));
  EXPECT_TRUE(*Pred("MOD(id, 4) = 3"));
  EXPECT_TRUE(*Pred("LENGTH(name) = 3"));
  EXPECT_TRUE(*Pred("CONCAT(name, '!') = 'ann!'"));
}

TEST_F(ExprEvalTest, UnknownFunctionFails) {
  auto r = Eval("NO_SUCH_FN() = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ExprEvalTest, IsRowIndependent) {
  EXPECT_TRUE(IsRowIndependent(*ParseExpr("1 + 2 = 3")));
  EXPECT_TRUE(IsRowIndependent(*ParseExpr("ABS(0-4) = 4")));
  EXPECT_FALSE(IsRowIndependent(*ParseExpr("id = 1")));
  EXPECT_FALSE(IsRowIndependent(*ParseExpr("ABS(id) = 1")));
  EXPECT_FALSE(IsRowIndependent(*ParseExpr("id IS NULL")));
  EXPECT_TRUE(IsRowIndependent(*ParseExpr("NULL IS NULL")));
}

TEST_F(ExprEvalTest, ExprToStringRoundTripsStructure) {
  ExprPtr e = ParseExpr("id >= 5 AND name = 'x'");
  std::string s = e->ToString();
  EXPECT_NE(s.find(">="), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_NE(s.find("'x'"), std::string::npos);
}

TEST_F(ExprEvalTest, MixedIntDoubleComparison) {
  EXPECT_TRUE(*Pred("score = 2.5"));
  EXPECT_FALSE(*Pred("score != 2.5"));
  EXPECT_TRUE(*Pred("score > 2"));
  EXPECT_TRUE(*Pred("2 < score"));
  EXPECT_FALSE(*Pred("score < -1"));
  // Int column against a double literal.
  EXPECT_TRUE(*Pred("id = 7.0"));
  EXPECT_TRUE(*Pred("id < 7.5"));
  EXPECT_FALSE(*Pred("id >= 7.5"));
}

TEST_F(ExprEvalTest, ThreeValuedOr) {
  EXPECT_EQ(*Eval("1 = 1 OR 1 = 2"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("1 = 2 OR 1 = 3"), Value(int64_t{0}));
  // true OR unknown = true.
  EXPECT_EQ(*Eval("1 = 1 OR NULL = 1"), Value(int64_t{1}));
  // false OR unknown = unknown.
  EXPECT_TRUE(Eval("1 = 2 OR NULL = 1")->is_null());
}

TEST_F(ExprEvalTest, NotOperator) {
  EXPECT_EQ(*Eval("NOT 1 = 2"), Value(int64_t{1}));
  EXPECT_EQ(*Eval("NOT 1 = 1"), Value(int64_t{0}));
  EXPECT_TRUE(Eval("NOT NULL = 1")->is_null());
  EXPECT_TRUE(*Pred("NOT NOT id = 7"));
}

TEST_F(ExprEvalTest, InListSemantics) {
  EXPECT_TRUE(*Pred("id IN (5, 6, 7)"));
  EXPECT_FALSE(*Pred("id IN (1, 2)"));
  EXPECT_TRUE(*Pred("name IN ('ann', 'bob')"));
  // NULL needle -> unknown -> false as predicate.
  EXPECT_FALSE(*Pred("NULL IN (1, 2)"));
  // Not found + NULL in list -> unknown.
  EXPECT_TRUE(Eval("id IN (1, NULL)")->is_null());
  // Found even with NULL in list -> true.
  EXPECT_TRUE(*Pred("id IN (7, NULL)"));
}

TEST_F(ExprEvalTest, NotInSemantics) {
  EXPECT_TRUE(*Pred("id NOT IN (1, 2)"));
  EXPECT_FALSE(*Pred("id NOT IN (7)"));
  // Not found but list has NULL -> unknown (the classic NOT IN trap).
  EXPECT_TRUE(Eval("id NOT IN (1, NULL)")->is_null());
}

TEST_F(ExprEvalTest, BetweenEvaluates) {
  EXPECT_TRUE(*Pred("id BETWEEN 5 AND 9"));
  EXPECT_TRUE(*Pred("id BETWEEN 7 AND 7"));
  EXPECT_FALSE(*Pred("id BETWEEN 8 AND 9"));
  EXPECT_TRUE(*Pred("id NOT BETWEEN 8 AND 9"));
  EXPECT_FALSE(*Pred("id NOT BETWEEN 1 AND 9"));
}

TEST_F(ExprEvalTest, OrAndPrecedenceInEvaluation) {
  // a=1 AND b=2 OR id=7  ->  (false AND ...) OR true = true
  EXPECT_TRUE(*Pred("1 = 2 AND 1 = 1 OR id = 7"));
  EXPECT_FALSE(*Pred("1 = 2 AND (1 = 1 OR id = 7)"));
}

}  // namespace
}  // namespace clouddb::db
