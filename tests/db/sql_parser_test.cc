#include "db/sql_parser.h"
#include "db/sql_ast.h"
#include "db/statement_cache.h"
#include "db/value.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

PreparedCall MustParseCall(const std::string& sql) {
  auto r = ParseSql(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return std::move(r).value();
}

Statement MustParse(const std::string& sql) {
  return *MustParseCall(sql).statement;
}

template <typename T>
T MustParseAs(const std::string& sql) {
  return std::get<T>(MustParse(sql));
}

/// A parameter operand bound to slot `index`.
void ExpectSlot(const Operand& op, size_t index) {
  EXPECT_EQ(op.kind, Operand::Kind::kParameter);
  EXPECT_EQ(op.param_index, index);
}

TEST(ParserTest, CreateTable) {
  Statement stmt = MustParse(
      "CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT NOT NULL, "
      "score INT, n INT NOT NULL)");
  auto& create = std::get<CreateTableStatement>(stmt);
  EXPECT_EQ(create.table, "t");
  ASSERT_EQ(create.columns.size(), 4u);
  EXPECT_TRUE(create.columns[0].primary_key);
  EXPECT_EQ(create.columns[0].type, ValueType::kInt64);
  EXPECT_TRUE(create.columns[1].not_null);
  EXPECT_EQ(create.columns[1].type, ValueType::kString);
  EXPECT_EQ(create.columns[2].type, ValueType::kInt64);
  EXPECT_EQ(create.columns[3].type, ValueType::kInt64);
  EXPECT_TRUE(create.columns[3].not_null);
  EXPECT_FALSE(create.columns[3].primary_key);
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
    auto r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << sql;
    EXPECT_NE(r.status().message().find(
                  "parse error at offset 0: expected a statement"),
              std::string::npos)
        << sql << " -> " << r.status().ToString();
  }
}

TEST(ParserTest, InsertWithColumnList) {
  PreparedCall call = MustParseCall("INSERT INTO t (a, b) VALUES (1, 'x')");
  auto& ins = std::get<InsertStatement>(*call.statement);
  EXPECT_EQ(ins.table, "t");
  EXPECT_EQ(ins.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(ins.values.size(), 2u);
  ExpectSlot(ins.values[0], 0);
  ExpectSlot(ins.values[1], 1);
  EXPECT_EQ(call.params, (std::vector<Value>{Value(int64_t{1}), Value("x")}));
}

// NULL is an operand of its own, not a parameter: it takes no slot.
TEST(ParserTest, InsertWithoutColumnList) {
  PreparedCall call = MustParseCall("INSERT INTO t VALUES (1, NULL, 'y')");
  auto& ins = std::get<InsertStatement>(*call.statement);
  EXPECT_TRUE(ins.columns.empty());
  ASSERT_EQ(ins.values.size(), 3u);
  ExpectSlot(ins.values[0], 0);
  EXPECT_EQ(ins.values[1].kind, Operand::Kind::kNull);
  ExpectSlot(ins.values[2], 1);
  EXPECT_EQ(call.params, (std::vector<Value>{Value(int64_t{1}), Value("y")}));
}

TEST(ParserTest, InsertWithNowMicros) {
  PreparedCall call = MustParseCall(
      "INSERT INTO hb (id, ts, n) VALUES (7, NOW_MICROS(), now_micros())");
  auto& ins = std::get<InsertStatement>(*call.statement);
  ASSERT_EQ(ins.values.size(), 3u);
  ExpectSlot(ins.values[0], 0);
  EXPECT_EQ(ins.values[1].kind, Operand::Kind::kNowMicros);
  EXPECT_EQ(ins.values[2].kind, Operand::Kind::kNowMicros);
  EXPECT_EQ(call.params, std::vector<Value>{Value(int64_t{7})});
}

// A '-' written before a number is its sign: the literal is negative.
TEST(ParserTest, SignedLiterals) {
  PreparedCall ins =
      MustParseCall("INSERT INTO t VALUES (-5, 0, -9223372036854775808)");
  EXPECT_EQ(ins.params, (std::vector<Value>{Value(int64_t{-5}),
                                            Value(int64_t{0}),
                                            Value(INT64_MIN)}));
  PreparedCall sel = MustParseCall("SELECT * FROM t WHERE a>-1");
  ASSERT_EQ(std::get<SelectStatement>(*sel.statement).where.size(), 1u);
  EXPECT_EQ(sel.params, std::vector<Value>{Value(int64_t{-1})});
}

TEST(ParserTest, SelectStar) {
  auto sel = MustParseAs<SelectStatement>(("SELECT * FROM t"));
  EXPECT_TRUE(sel.star);
  EXPECT_FALSE(sel.count_star);
  EXPECT_EQ(sel.table, "t");
  EXPECT_TRUE(sel.where.empty());
  EXPECT_TRUE(sel.order_by.empty());
  EXPECT_FALSE(sel.limit.has_value());
}

// The slots number the literals in text order, across the WHERE clause and
// the LIMIT; NULL and NOW_MICROS() take none.
TEST(ParserTest, SelectColumnsWhereOrderLimit) {
  PreparedCall call = MustParseCall(
      "SELECT a, b FROM t WHERE a >= 5 AND b = 'x' AND c < NOW_MICROS() "
      "AND d = NULL ORDER BY a LIMIT 10");
  auto& sel = std::get<SelectStatement>(*call.statement);
  EXPECT_EQ(sel.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(sel.where.size(), 4u);
  EXPECT_EQ(sel.where[0].column, "a");
  EXPECT_EQ(sel.where[0].op, CompareOp::kGe);
  ExpectSlot(sel.where[0].value, 0);
  EXPECT_EQ(sel.where[1].column, "b");
  EXPECT_EQ(sel.where[1].op, CompareOp::kEq);
  ExpectSlot(sel.where[1].value, 1);
  EXPECT_EQ(sel.where[2].op, CompareOp::kLt);
  EXPECT_EQ(sel.where[2].value.kind, Operand::Kind::kNowMicros);
  EXPECT_EQ(sel.where[3].value.kind, Operand::Kind::kNull);
  EXPECT_EQ(sel.order_by, "a");
  ASSERT_TRUE(sel.limit.has_value());
  ExpectSlot(*sel.limit, 2);
  EXPECT_EQ(call.params, (std::vector<Value>{Value(int64_t{5}), Value("x"),
                                             Value(int64_t{10})}));
}

// The LIMIT count is any literal; the executor checks it (see
// DatabaseTest.LimitMustBeANonNegativeInteger).
TEST(ParserTest, LimitTakesALiteral) {
  PreparedCall call = MustParseCall("SELECT * FROM t LIMIT -1");
  auto& sel = std::get<SelectStatement>(*call.statement);
  ASSERT_TRUE(sel.limit.has_value());
  ExpectSlot(*sel.limit, 0);
  EXPECT_EQ(call.params, std::vector<Value>{Value(int64_t{-1})});
}

TEST(ParserTest, SelectCountStar) {
  auto sel = MustParseAs<SelectStatement>(("SELECT COUNT(*) FROM t"));
  EXPECT_TRUE(sel.count_star);
  EXPECT_FALSE(sel.star);
}

TEST(ParserTest, ComparisonOperators) {
  const std::pair<const char*, CompareOp> kOps[] = {
      {"=", CompareOp::kEq}, {"<", CompareOp::kLt}, {"<=", CompareOp::kLe},
      {">", CompareOp::kGt}, {">=", CompareOp::kGe}};
  for (const auto& [text, op] : kOps) {
    std::string sql = std::string("SELECT * FROM t WHERE a ") + text + " 1";
    auto sel = MustParseAs<SelectStatement>(sql);
    ASSERT_EQ(sel.where.size(), 1u) << sql;
    EXPECT_EQ(sel.where[0].op, op) << sql;
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

// The grammar is the SQL the workloads send (see sql_parser.h): every other
// form fails in the parser, which names the offending token.
class RemovedGrammarTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RemovedGrammarTest, FailsToParse) {
  auto r = ParseSql(GetParam());
  ASSERT_FALSE(r.ok()) << GetParam();
  EXPECT_TRUE(r.status().IsInvalidArgument()) << GetParam();
  EXPECT_EQ(r.status().message().rfind("parse error at offset ", 0), 0u)
      << GetParam() << " -> " << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Forms, RemovedGrammarTest,
    ::testing::Values(
        // Boolean connectives other than AND.
        "SELECT * FROM t WHERE a = 1 OR b = 2", "SELECT * FROM t WHERE NOT a = 1",
        "SELECT * FROM t WHERE a IN (1, 2)", "SELECT * FROM t WHERE a NOT IN (1)",
        "SELECT * FROM t WHERE a BETWEEN 1 AND 5",
        "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 5",
        "SELECT * FROM t WHERE a IS NULL", "SELECT * FROM t WHERE a IS NOT NULL",
        // Comparison operators other than = < <= > >=.
        "SELECT * FROM t WHERE a != 1", "SELECT * FROM t WHERE a <> 1",
        // Arithmetic, grouping and unary minus apart from a number's sign.
        "SELECT * FROM t WHERE a = 1 + 2", "SELECT * FROM t WHERE a = 2 * 3",
        "SELECT * FROM t WHERE a = 4 / 2", "SELECT * FROM t WHERE a = 1 - 2",
        "SELECT * FROM t WHERE a = - 2", "SELECT * FROM t WHERE (a = 1)",
        "SELECT * FROM t WHERE a = (1)", "INSERT INTO t VALUES (1 + 1)",
        "INSERT INTO t VALUES (-a)",
        // Only `column op value`.
        "SELECT * FROM t WHERE 5 = a", "SELECT * FROM t WHERE a = b",
        "SELECT * FROM t WHERE NOW_MICROS() > a", "INSERT INTO t VALUES (a)",
        // No function but NOW_MICROS(), which takes no argument.
        "SELECT * FROM t WHERE a = ABS(-5)", "INSERT INTO t VALUES (LENGTH('x'))",
        "INSERT INTO t VALUES (CONCAT('a', 'b'))",
        "INSERT INTO t VALUES (MOD(7, 2))", "INSERT INTO t VALUES (NOW_MICROS(1))",
        "INSERT INTO t VALUES (NOW_MICROS)",
        // No aggregate but a lone COUNT(*).
        "SELECT MIN(a) FROM t", "SELECT MAX(a) FROM t", "SELECT SUM(a) FROM t",
        "SELECT AVG(a) FROM t", "SELECT COUNT(a) FROM t",
        "SELECT COUNT(*), COUNT(*) FROM t", "SELECT a, COUNT(*) FROM t",
        "SELECT COUNT(*), a FROM t",
        // ORDER BY sorts ascending and takes no direction.
        "SELECT * FROM t ORDER BY a ASC", "SELECT * FROM t ORDER BY a DESC",
        // Column types INT, BIGINT and TEXT only.
        "CREATE TABLE t (a VARCHAR(10))", "CREATE TABLE t (a VARCHAR)",
        "CREATE TABLE t (a TIMESTAMP)"));

// There is no floating-point type: DOUBLE is not a column type, and a
// decimal point or an exponent does not continue a number. Each text fails
// to parse with the same error whether it is compiled through a statement
// cache or not, and the cache remembers none of them.
class NoFloatingPointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NoFloatingPointTest, FailsToParseWithTheCacheOnAndOff) {
  const std::string sql = GetParam();
  auto parsed = ParseSql(sql);
  ASSERT_FALSE(parsed.ok()) << sql;
  EXPECT_TRUE(parsed.status().IsInvalidArgument()) << sql;
  EXPECT_EQ(parsed.status().message().rfind("parse error at offset ", 0), 0u)
      << sql << " -> " << parsed.status().ToString();
  if (sql.find("DOUBLE") != std::string::npos) {
    EXPECT_NE(parsed.status().message().find("expected column type"),
              std::string::npos)
        << parsed.status().ToString();
  }
  StatementCache cache;
  for (StatementCache* on : {&cache, static_cast<StatementCache*>(nullptr)}) {
    auto compiled = CompileSql(on, sql);
    ASSERT_FALSE(compiled->ok()) << sql;
    EXPECT_EQ(compiled->status().ToString(), parsed.status().ToString())
        << sql;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bypasses, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Forms, NoFloatingPointTest,
    ::testing::Values("CREATE TABLE t (a DOUBLE)",
                      "CREATE TABLE t (id INT PRIMARY KEY, d DOUBLE NOT NULL)",
                      "INSERT INTO t VALUES (1.5)", "INSERT INTO t VALUES (.5)",
                      "INSERT INTO t VALUES (1e3)", "INSERT INTO t VALUES (2.)",
                      "INSERT INTO t VALUES (-1.5)",
                      "SELECT * FROM t WHERE a = 1.5",
                      "SELECT * FROM t WHERE a < .5",
                      "SELECT * FROM t WHERE a >= 1e3",
                      "SELECT * FROM t LIMIT 2."));

}  // namespace
}  // namespace clouddb::db
