#include "db/sql_parser.h"
#include "common/result.h"
#include "db/sql_ast.h"
#include "db/value.h"

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

Statement MustParse(const std::string& sql) {
  auto r = ParseSql(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return std::move(r).value();
}


template <typename T>
T MustParseAs(const std::string& sql) {
  auto r = ParseSql(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return std::move(std::get<T>(*r));
}

TEST(ParserTest, CreateTable) {
  Statement stmt = MustParse(
      "CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT NOT NULL, "
      "score DOUBLE, note VARCHAR(80), stamp TIMESTAMP)");
  auto& create = std::get<CreateTableStatement>(stmt);
  EXPECT_EQ(create.table, "t");
  ASSERT_EQ(create.columns.size(), 5u);
  EXPECT_TRUE(create.columns[0].primary_key);
  EXPECT_EQ(create.columns[0].type, ValueType::kInt64);
  EXPECT_TRUE(create.columns[1].not_null);
  EXPECT_EQ(create.columns[1].type, ValueType::kString);
  EXPECT_EQ(create.columns[2].type, ValueType::kDouble);
  EXPECT_EQ(create.columns[3].type, ValueType::kString);
  EXPECT_EQ(create.columns[4].type, ValueType::kInt64);
}

TEST(ParserTest, CreateIndex) {
  Statement stmt = MustParse("CREATE INDEX idx_age ON people (age)");
  auto& ci = std::get<CreateIndexStatement>(stmt);
  EXPECT_EQ(ci.index, "idx_age");
  EXPECT_EQ(ci.table, "people");
  EXPECT_EQ(ci.column, "age");
}

// Tables are append-only: the statements that would change or remove rows
// or tables are not part of the grammar. Their words are not keywords
// either, so each text fails at its first token.
TEST(ParserTest, UpdateDeleteDropAndTruncateFailToParse) {
  for (const char* sql :
       {"UPDATE t SET a = a + 1, b = 'y' WHERE id = 3", "DELETE FROM t",
        "DELETE FROM t WHERE a < 3", "DROP TABLE t", "TRUNCATE t",
        "TRUNCATE TABLE t"}) {
    Result<Statement> r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << sql;
    EXPECT_NE(r.status().message().find(
                  "parse error at offset 0: expected a statement"),
              std::string::npos)
        << sql << " -> " << r.status().ToString();
  }
}

TEST(ParserTest, InsertWithColumnList) {
  Statement stmt =
      MustParse("INSERT INTO t (a, b) VALUES (1, 'x')");
  auto& ins = std::get<InsertStatement>(stmt);
  EXPECT_EQ(ins.table, "t");
  EXPECT_EQ(ins.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(ins.values.size(), 2u);
  EXPECT_EQ(ins.values[0]->literal, Value(int64_t{1}));
  EXPECT_EQ(ins.values[1]->literal, Value("x"));
}

TEST(ParserTest, InsertWithoutColumnList) {
  auto ins = MustParseAs<InsertStatement>(("INSERT INTO t VALUES (1, 2.5, NULL)"));
  EXPECT_TRUE(ins.columns.empty());
  ASSERT_EQ(ins.values.size(), 3u);
  EXPECT_TRUE(ins.values[2]->literal.is_null());
}

TEST(ParserTest, InsertWithFunctionCall) {
  auto ins = MustParseAs<InsertStatement>(("INSERT INTO hb (id, ts) VALUES (7, NOW_MICROS())"));
  ASSERT_EQ(ins.values.size(), 2u);
  EXPECT_EQ(ins.values[1]->kind, Expr::Kind::kFunctionCall);
  EXPECT_EQ(ins.values[1]->function, "NOW_MICROS");
  EXPECT_TRUE(ins.values[1]->args.empty());
}

TEST(ParserTest, SelectStar) {
  auto sel = MustParseAs<SelectStatement>(("SELECT * FROM t"));
  EXPECT_TRUE(sel.star);
  EXPECT_FALSE(sel.count_star);
  EXPECT_EQ(sel.table, "t");
  EXPECT_EQ(sel.where, nullptr);
}

TEST(ParserTest, SelectColumnsWhereOrderLimit) {
  auto sel = MustParseAs<SelectStatement>((
      "SELECT a, b FROM t WHERE a >= 5 AND b = 'x' ORDER BY a DESC LIMIT 10"));
  EXPECT_EQ(sel.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->kind, Expr::Kind::kBinary);
  EXPECT_EQ(sel.where->op, BinaryOp::kAnd);
  EXPECT_EQ(sel.order_by, "a");
  EXPECT_TRUE(sel.order_desc);
  ASSERT_TRUE(sel.limit.has_value());
  EXPECT_EQ(*sel.limit, 10);
}

TEST(ParserTest, SelectOrderByAscExplicit) {
  auto sel = MustParseAs<SelectStatement>(("SELECT * FROM t ORDER BY a ASC"));
  EXPECT_EQ(sel.order_by, "a");
  EXPECT_FALSE(sel.order_desc);
}

TEST(ParserTest, SelectCountStar) {
  auto sel = MustParseAs<SelectStatement>(("SELECT COUNT(*) FROM t"));
  EXPECT_TRUE(sel.count_star);
  EXPECT_FALSE(sel.star);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto sel = MustParseAs<SelectStatement>(("SELECT * FROM t WHERE a = 1 + 2 * 3"));
  // Rhs of '=' must be 1 + (2*3).
  const Expr& eq = *sel.where;
  EXPECT_EQ(eq.op, BinaryOp::kEq);
  const Expr& add = *eq.rhs;
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  EXPECT_EQ(add.lhs->literal, Value(int64_t{1}));
  EXPECT_EQ(add.rhs->op, BinaryOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto sel = MustParseAs<SelectStatement>(("SELECT * FROM t WHERE a = (1 + 2) * 3"));
  const Expr& mul = *sel.where->rhs;
  EXPECT_EQ(mul.op, BinaryOp::kMul);
  EXPECT_EQ(mul.lhs->op, BinaryOp::kAdd);
}

TEST(ParserTest, UnaryMinus) {
  auto ins = MustParseAs<InsertStatement>(("INSERT INTO t VALUES (-5)"));
  const Expr& e = *ins.values[0];
  // Encoded as 0 - 5.
  EXPECT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.op, BinaryOp::kSub);
  EXPECT_EQ(e.rhs->literal, Value(int64_t{5}));
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto s1 = MustParseAs<SelectStatement>(("SELECT * FROM t WHERE a IS NULL"));
  EXPECT_EQ(s1.where->kind, Expr::Kind::kIsNull);
  EXPECT_FALSE(s1.where->is_null_negated);
  auto s2 = MustParseAs<SelectStatement>(("SELECT * FROM t WHERE a IS NOT NULL"));
  EXPECT_TRUE(s2.where->is_null_negated);
}

TEST(ParserTest, ComparisonOperators) {
  for (const char* op : {"=", "!=", "<>", "<", "<=", ">", ">="}) {
    std::string sql = std::string("SELECT * FROM t WHERE a ") + op + " 1";
    EXPECT_TRUE(ParseSql(sql).ok()) << sql;
  }
}

TEST(ParserTest, StatementClassifiers) {
  EXPECT_TRUE(IsWriteStatement(MustParse("INSERT INTO t VALUES (1)")));
  EXPECT_TRUE(IsWriteStatement(MustParse("CREATE TABLE t (a INT)")));
  EXPECT_TRUE(IsWriteStatement(MustParse("CREATE INDEX i ON t (a)")));
  EXPECT_FALSE(IsWriteStatement(MustParse("SELECT * FROM t")));
  EXPECT_EQ(TargetTable(MustParse("INSERT INTO Items VALUES (1)")), "Items");
  EXPECT_EQ(TargetTable(MustParse("CREATE INDEX i ON t (a)")), "t");
  EXPECT_EQ(TargetTable(MustParse("SELECT * FROM s")), "s");
}

struct BadSqlCase {
  const char* sql;
};

class ParserErrorTest : public ::testing::TestWithParam<BadSqlCase> {};

TEST_P(ParserErrorTest, Rejects) {
  auto r = ParseSql(GetParam().sql);
  EXPECT_FALSE(r.ok()) << GetParam().sql;
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    BadStatements, ParserErrorTest,
    ::testing::Values(BadSqlCase{""},
                      BadSqlCase{"SELEC * FROM t"},
                      BadSqlCase{"SELECT FROM t"},
                      BadSqlCase{"SELECT * FROM"},
                      BadSqlCase{"SELECT * t"},
                      BadSqlCase{"INSERT t VALUES (1)"},
                      BadSqlCase{"INSERT INTO t VALUES 1"},
                      BadSqlCase{"INSERT INTO t (a VALUES (1)"},
                      BadSqlCase{"CREATE TABLE t ()"},
                      BadSqlCase{"CREATE TABLE t (a)"},
                      BadSqlCase{"CREATE TABLE t (a FLOAT)"},
                      BadSqlCase{"CREATE INDEX i ON t"},
                      BadSqlCase{"SELECT * FROM t WHERE"},
                      BadSqlCase{"SELECT * FROM t WHERE a ="},
                      BadSqlCase{"SELECT * FROM t LIMIT x"},
                      BadSqlCase{"SELECT * FROM t ORDER a"},
                      BadSqlCase{"SELECT * FROM t extra garbage"},
                      BadSqlCase{"SELECT * FROM t WHERE a IS 5"},
                      // Auto-commit only: no transaction control.
                      BadSqlCase{"BEGIN"}));

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseSql("SELECT * FROM t;").ok());
}

TEST(ParserTest, OrBindsLooserThanAnd) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3");
  // Parsed as (a=1 AND b=2) OR (c=3).
  ASSERT_EQ(sel.where->op, BinaryOp::kOr);
  EXPECT_EQ(sel.where->lhs->op, BinaryOp::kAnd);
  EXPECT_EQ(sel.where->rhs->op, BinaryOp::kEq);
}

TEST(ParserTest, NotPrefix) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE NOT a = 1");
  EXPECT_EQ(sel.where->kind, Expr::Kind::kNot);
  EXPECT_EQ(sel.where->lhs->op, BinaryOp::kEq);
}

TEST(ParserTest, InList) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a IN (1, 2, 3)");
  ASSERT_EQ(sel.where->kind, Expr::Kind::kInList);
  EXPECT_FALSE(sel.where->is_null_negated);
  EXPECT_EQ(sel.where->args.size(), 3u);
}

TEST(ParserTest, NotInList) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a NOT IN (1, 2)");
  ASSERT_EQ(sel.where->kind, Expr::Kind::kInList);
  EXPECT_TRUE(sel.where->is_null_negated);
}

TEST(ParserTest, BetweenDesugarsToRange) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a BETWEEN 3 AND 7");
  // (a >= 3) AND (a <= 7)
  ASSERT_EQ(sel.where->op, BinaryOp::kAnd);
  EXPECT_EQ(sel.where->lhs->op, BinaryOp::kGe);
  EXPECT_EQ(sel.where->rhs->op, BinaryOp::kLe);
  EXPECT_EQ(sel.where->lhs->rhs->literal, Value(int64_t{3}));
  EXPECT_EQ(sel.where->rhs->rhs->literal, Value(int64_t{7}));
}

TEST(ParserTest, NotBetween) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a NOT BETWEEN 3 AND 7");
  EXPECT_EQ(sel.where->kind, Expr::Kind::kNot);
  EXPECT_EQ(sel.where->lhs->op, BinaryOp::kAnd);
}

TEST(ParserTest, BetweenCombinesWithOuterAnd) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b = 2");
  // ((a>=1 AND a<=5) AND b=2)
  ASSERT_EQ(sel.where->op, BinaryOp::kAnd);
  EXPECT_EQ(sel.where->lhs->op, BinaryOp::kAnd);
  EXPECT_EQ(sel.where->rhs->op, BinaryOp::kEq);
}

TEST(ParserTest, AggregateSelectList) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT MIN(a), MAX(a), SUM(b), AVG(b), COUNT(*) FROM t");
  ASSERT_EQ(sel.aggregates.size(), 5u);
  EXPECT_EQ(sel.aggregates[0].fn, AggregateFn::kMin);
  EXPECT_EQ(sel.aggregates[0].column, "a");
  EXPECT_EQ(sel.aggregates[2].fn, AggregateFn::kSum);
  EXPECT_EQ(sel.aggregates[4].fn, AggregateFn::kCountStar);
  EXPECT_FALSE(sel.count_star);  // not a lone COUNT(*)
}

TEST(ParserTest, LoneCountStarSetsFlag) {
  auto sel = MustParseAs<SelectStatement>("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(sel.count_star);
  ASSERT_EQ(sel.aggregates.size(), 1u);
}

TEST(ParserTest, MixedAggregatesAndColumnsRejected) {
  EXPECT_FALSE(ParseSql("SELECT a, MAX(b) FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT MAX(b), a FROM t").ok());
}

TEST(ParserTest, NewPredicateErrorCases) {
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE a IN ()").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE a IN 1").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE a NOT 5").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE NOT").ok());
}

TEST(ParserTest, CloneExprDeepCopies) {
  auto sel = MustParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a IN (1, 2) AND NOT b = ABS(0 - 3)");
  ExprPtr copy = CloneExpr(*sel.where);
  EXPECT_EQ(copy->ToString(), sel.where->ToString());
  EXPECT_NE(copy.get(), sel.where.get());
  EXPECT_NE(copy->lhs.get(), sel.where->lhs.get());
}

}  // namespace
}  // namespace clouddb::db
