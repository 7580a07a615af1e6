#include "db/database.h"
#include "common/status.h"
#include "db/binlog.h"
#include "db/value.h"
#include "db/writeset.h"
#include "db/writeset_apply.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  ExecResult Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  void SetUpPeople() {
    Must("CREATE TABLE people (id BIGINT PRIMARY KEY, name TEXT NOT NULL, "
         "age INT)");
    Must("INSERT INTO people VALUES (1, 'ann', 30)");
    Must("INSERT INTO people VALUES (2, 'bob', 25)");
    Must("INSERT INTO people VALUES (3, 'cat', 35)");
    Must("INSERT INTO people VALUES (4, 'dan', 25)");
  }

  Database db_;
};

Row Person(int64_t id, const char* name, int64_t age) {
  return Row{Value(id), Value(name), Value(age)};
}

TEST_F(DatabaseTest, CreateInsertSelect) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "bob");
  EXPECT_EQ(r.column_names,
            (std::vector<std::string>{"id", "name", "age"}));
}

TEST_F(DatabaseTest, PkLookupUsesPkPlan) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE id = 3");
  EXPECT_EQ(r.plan, "pk_eq(id)");
  EXPECT_EQ(r.rows_examined, 1);
}

TEST_F(DatabaseTest, FullScanWithoutIndex) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE age = 25");
  EXPECT_EQ(r.plan, "table_scan");
  EXPECT_EQ(r.rows_examined, 4);
  EXPECT_EQ(r.rows.size(), 2u);
  // A comparison with NULL gives the planner no key to look up, and it
  // matches no row.
  ExecResult null_key = Must("SELECT * FROM people WHERE id = NULL");
  EXPECT_EQ(null_key.plan, "table_scan");
  EXPECT_EQ(null_key.rows.size(), 0u);
}

TEST_F(DatabaseTest, SecondaryIndexEqPlan) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  ExecResult r = Must("SELECT * FROM people WHERE age = 25");
  EXPECT_EQ(r.plan, "index_eq(age)");
  EXPECT_EQ(r.rows_examined, 2);
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, SecondaryIndexRangePlan) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  ExecResult r = Must("SELECT name FROM people WHERE age >= 30 AND age <= 40");
  EXPECT_EQ(r.plan, "index_range(age)");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, PkRangePlan) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE id > 1 AND id < 4");
  EXPECT_EQ(r.plan, "index_range(id)");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, PredicateStillAppliedAfterIndexScan) {
  SetUpPeople();
  // id = 2 via index, plus a non-indexable residual predicate.
  ExecResult r = Must("SELECT * FROM people WHERE id = 2 AND name = 'zzz'");
  EXPECT_EQ(r.plan, "pk_eq(id)");
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(DatabaseTest, OrderByAndLimit) {
  SetUpPeople();
  ExecResult r = Must("SELECT name FROM people ORDER BY age LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
  EXPECT_EQ(r.rows[1][0].AsString(), "dan");
  EXPECT_EQ(r.rows[2][0].AsString(), "ann");
}

TEST_F(DatabaseTest, OrderByAscendingStable) {
  SetUpPeople();
  ExecResult r = Must("SELECT id FROM people ORDER BY age");
  ASSERT_EQ(r.rows.size(), 4u);
  // bob(25), dan(25) keep id order (stable sort), then ann(30), cat(35).
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[3][0].AsInt64(), 3);
}

TEST_F(DatabaseTest, CountStar) {
  SetUpPeople();
  ExecResult r = Must("SELECT COUNT(*) FROM people WHERE age = 25");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.column_names[0], "COUNT(*)");
  // No match counts 0, and LIMIT does not cut the count.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE age > 1000").rows,
            (std::vector<Row>{{Value(int64_t{0})}}));
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people LIMIT 1").rows,
            (std::vector<Row>{{Value(int64_t{4})}}));
}

TEST_F(DatabaseTest, LimitZero) {
  SetUpPeople();
  EXPECT_EQ(Must("SELECT * FROM people LIMIT 0").rows.size(), 0u);
}

// LIMIT cuts COUNT(*)'s one result row like any other: LIMIT 0 returns no
// row, with the cache on or off, while the count still counts every match.
TEST_F(DatabaseTest, CountStarLimitZeroReturnsNoRow) {
  SetUpPeople();
  for (bool cache : {true, false}) {
    db_.set_statement_cache_enabled(cache);
    ExecResult none = Must("SELECT COUNT(*) FROM people LIMIT 0");
    EXPECT_TRUE(none.rows.empty()) << "cache " << cache;
    EXPECT_EQ(none.column_names, std::vector<std::string>{"COUNT(*)"});
    EXPECT_TRUE(
        Must("SELECT COUNT(*) FROM people WHERE age = 25 LIMIT 0").rows.empty())
        << "cache " << cache;
    EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE age = 25 LIMIT 1").rows,
              (std::vector<Row>{{Value(int64_t{2})}}))
        << "cache " << cache;
  }
}

// The LIMIT count is checked when the statement runs, with the cache on or
// off: a cached template binds it like any literal.
TEST_F(DatabaseTest, LimitMustBeANonNegativeInteger) {
  SetUpPeople();
  for (bool cache : {true, false}) {
    db_.set_statement_cache_enabled(cache);
    for (const char* sql :
         {"SELECT * FROM people LIMIT -1", "SELECT * FROM people LIMIT 'two'",
          "SELECT * FROM people LIMIT NULL"}) {
      Status st = db_.Execute(sql).status();
      EXPECT_TRUE(st.IsInvalidArgument()) << sql;
      EXPECT_EQ(st.message(), "LIMIT must be a non-negative integer") << sql;
    }
    // A decimal is no number at all: the text fails to parse.
    Status decimal = db_.Execute("SELECT * FROM people LIMIT 1.5").status();
    EXPECT_TRUE(decimal.IsInvalidArgument());
    EXPECT_EQ(decimal.message().rfind("parse error at offset ", 0), 0u)
        << decimal.ToString();
  }
}

TEST_F(DatabaseTest, ProjectionSubset) {
  SetUpPeople();
  ExecResult r = Must("SELECT age, id FROM people WHERE id = 1");
  EXPECT_EQ(r.column_names, (std::vector<std::string>{"age", "id"}));
  EXPECT_EQ(r.rows[0][0].AsInt64(), 30);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
}

TEST_F(DatabaseTest, InsertWithColumnListFillsNulls) {
  Must("CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c INT)");
  Must("INSERT INTO t (a) VALUES (1)");
  ExecResult r = Must("SELECT * FROM t");
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

// An INSERT whose column list names one column twice, in any case, is
// refused (MySQL: "Column 'b' specified twice") with the cache on or off,
// before it changes anything: no row is stored and nothing is logged.
TEST_F(DatabaseTest, InsertNamingAColumnTwiceIsRefused) {
  Must("CREATE TABLE t (a INT PRIMARY KEY, b INT, c TEXT)");
  for (bool cache : {true, false}) {
    db_.set_statement_cache_enabled(cache);
    for (const char* sql : {"INSERT INTO t (a, b, b) VALUES (1, 2, 3)",
                            "INSERT INTO t (a, b, B) VALUES (1, 2, 3)",
                            "INSERT INTO t (A, c, a) VALUES (1, 'x', 2)"}) {
      int64_t logged = db_.binlog().size();
      Status st = db_.Execute(sql).status();
      EXPECT_TRUE(st.IsInvalidArgument()) << sql << ": " << st.ToString();
      EXPECT_NE(st.ToString().find("specified twice"), std::string::npos)
          << sql;
      EXPECT_EQ(db_.binlog().size(), logged) << sql;
    }
  }
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 0);
  Must("INSERT INTO t (b, a) VALUES (2, 1)");
  ExecResult r = Must("SELECT * FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (Row{Value(int64_t{1}), Value(int64_t{2}), Value()}));
}

TEST_F(DatabaseTest, DuplicatePkRejected) {
  SetUpPeople();
  auto r = db_.Execute("INSERT INTO people VALUES (1, 'dup', 1)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAlreadyExists());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people").rows[0][0].AsInt64(), 4);
}

TEST_F(DatabaseTest, ErrorsForMissingTableAndColumn) {
  EXPECT_TRUE(db_.Execute("SELECT * FROM nope").status().IsNotFound());
  SetUpPeople();
  EXPECT_FALSE(db_.Execute("SELECT missing FROM people").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO people (nope) VALUES (1)").ok());
}

// Tables are append-only: the statements that would change or remove rows
// or tables are not SQL this engine knows, so they fail as parse errors and
// leave the tables and the binlog as they were, with the cache on or off.
TEST_F(DatabaseTest, UpdateDeleteDropAndTruncateFailToParse) {
  SetUpPeople();
  for (bool cache : {true, false}) {
    db_.set_statement_cache_enabled(cache);
    for (const char* sql : {"UPDATE people SET age = 1 WHERE id = 1",
                            "DELETE FROM people WHERE id = 1",
                            "DROP TABLE people", "TRUNCATE people",
                            "TRUNCATE TABLE people"}) {
      Database before;
      before.CopyTablesFrom(db_);
      int64_t logged = db_.binlog().size();
      Status st = db_.Execute(sql).status();
      EXPECT_TRUE(st.IsInvalidArgument()) << sql << ": " << st.ToString();
      EXPECT_NE(st.ToString().find("parse error"), std::string::npos) << sql;
      EXPECT_TRUE(Database::ContentsEqual(before, db_)) << sql;
      EXPECT_EQ(db_.binlog().size(), logged) << sql;
    }
  }
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people").rows[0][0].AsInt64(), 4);
}

TEST_F(DatabaseTest, TableNamesAreCaseInsensitive) {
  Must("CREATE TABLE CamelCase (a INT)");
  Must("INSERT INTO camelcase VALUES (1)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM CAMELCASE").rows[0][0].AsInt64(), 1);
}

// ---- Binlog --------------------------------------------------------------

TEST_F(DatabaseTest, BinlogRecordsWritesNotReads) {
  SetUpPeople();
  int64_t before = db_.binlog().size();
  Must("SELECT * FROM people");
  EXPECT_EQ(db_.binlog().size(), before);
  Must("INSERT INTO people VALUES (9, 'zed', 1)");
  EXPECT_EQ(db_.binlog().size(), before + 1);
  const BinlogEvent& ev = db_.binlog().At(before);
  EXPECT_EQ(ev.statement, "INSERT INTO people VALUES (9, 'zed', 1)");
}

TEST_F(DatabaseTest, FailedAutocommitNotLogged) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  // Each fails before it changes anything: a duplicate key, NULL in a NOT
  // NULL column, an unknown column, an index name in use, an index on an
  // unknown column.
  const char* const kFailing[] = {
      "INSERT INTO people VALUES (1, 'dup', 0)",
      "INSERT INTO people VALUES (9, NULL, 0)",
      "INSERT INTO people (id, nope) VALUES (9, 1)",
      "CREATE INDEX idx_age ON people (name)",
      "CREATE INDEX idx_nope ON people (nope)",
  };
  for (bool row_based : {false, true}) {
    db_.set_row_based_repl_enabled(row_based);
    for (const char* sql : kFailing) {
      Database before;
      before.CopyTablesFrom(db_);
      int64_t logged = db_.binlog().size();
      EXPECT_FALSE(db_.Execute(sql).ok()) << sql;
      EXPECT_TRUE(Database::ContentsEqual(before, db_)) << sql;
      std::string err;
      EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << sql << ": " << err;
      EXPECT_EQ(db_.binlog().size(), logged) << sql;
    }
  }
}

TEST_F(DatabaseTest, BinlogDisabledDatabaseLogsNothing) {
  DatabaseOptions options;
  options.enable_binlog = false;
  Database slave(std::move(options));
  ASSERT_TRUE(slave.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(slave.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(slave.binlog().size(), 0);
}

TEST_F(DatabaseTest, BinlogSuppressionScopes) {
  SetUpPeople();
  int64_t before = db_.binlog().size();
  db_.set_binlog_suppressed(true);
  Must("INSERT INTO people VALUES (20, 'bulk', 1)");
  db_.set_binlog_suppressed(false);
  EXPECT_EQ(db_.binlog().size(), before);
  Must("INSERT INTO people VALUES (21, 'live', 1)");
  EXPECT_EQ(db_.binlog().size(), before + 1);
}

TEST_F(DatabaseTest, NowMicrosFlowsFromTimeSource) {
  int64_t now = 1111;
  db_.SetTimeSource([&] { return now; });
  Must("CREATE TABLE hb (id INT PRIMARY KEY, ts BIGINT)");
  Must("INSERT INTO hb VALUES (1, NOW_MICROS())");
  now = 2222;
  Must("INSERT INTO hb VALUES (2, NOW_MICROS())");
  ExecResult r = Must("SELECT ts FROM hb ORDER BY id");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1111);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 2222);
  // Binlog commit timestamps come from the same source.
  EXPECT_EQ(db_.binlog().At(db_.binlog().size() - 1).commit_micros, 2222);
}

TEST_F(DatabaseTest, ContentsEqualAndIgnoreList) {
  Database other;
  for (Database* d : {&db_, &other}) {
    ASSERT_TRUE(d->Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
    ASSERT_TRUE(d->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(d->Execute("CREATE TABLE hb (id INT PRIMARY KEY, ts BIGINT)").ok());
  }
  ASSERT_TRUE(db_.Execute("INSERT INTO hb VALUES (1, 100)").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO hb VALUES (1, 200)").ok());
  EXPECT_FALSE(Database::ContentsEqual(db_, other));
  EXPECT_TRUE(Database::ContentsEqual(db_, other, {"hb"}));
}

TEST_F(DatabaseTest, ContentsEqualComparesTheCatalog) {
  Database other;
  Must("CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  ASSERT_TRUE(other.Execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)").ok());
  EXPECT_FALSE(Database::ContentsEqual(db_, other));  // same arity, new type

  Database twin;
  ASSERT_TRUE(twin.Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  EXPECT_TRUE(Database::ContentsEqual(db_, twin));
  Must("CREATE INDEX idx_b ON t (b)");
  EXPECT_FALSE(Database::ContentsEqual(db_, twin));
  ASSERT_TRUE(twin.Execute("CREATE INDEX idx_other ON t (b)").ok());
  EXPECT_FALSE(Database::ContentsEqual(db_, twin));  // index names differ
}

TEST_F(DatabaseTest, TableNamesListsTables) {
  SetUpPeople();
  Must("CREATE TABLE zoo (a INT)");
  auto names = db_.TableNames();
  EXPECT_EQ(names.size(), 2u);
}

// ---- WHERE comparisons ---------------------------------------------------

TEST_F(DatabaseTest, InclusiveRangeUsesIndexRange) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE id >= 2 AND id <= 3");
  EXPECT_EQ(r.plan, "index_range(id)");
  EXPECT_EQ(r.rows.size(), 2u);
}

// A row matches when every comparison holds. Values compare in Value order:
// integers numerically, strings lexicographically, and a number never
// equals a string and ranks below every one.
TEST_F(DatabaseTest, ComparisonsFollowValueOrder) {
  Must("CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT, score INT)");
  Must("INSERT INTO t VALUES (6, 'amy', 1)");
  Must("INSERT INTO t VALUES (7, 'ann', 2)");
  Must("INSERT INTO t VALUES (8, 'bob', -1)");
  const std::pair<const char*, std::vector<int64_t>> kCases[] = {
      {"id = 7", {7}},
      {"id < 8", {6, 7}},
      {"id <= 7", {6, 7}},
      {"id > 7", {8}},
      {"id >= 8", {8}},
      {"name = 'ann'", {7}},
      {"name < 'bob'", {6, 7}},
      {"name > ''", {6, 7, 8}},
      {"id = '7'", {}},
      {"id < 'x'", {6, 7, 8}},
      {"name > 5", {6, 7, 8}},
      {"score = 2", {7}},
      {"score > 1", {7}},
      {"score < 0", {8}},
      {"score >= -1", {6, 7, 8}},
      {"id >= 7 AND name = 'bob'", {8}},
      {"id >= 7 AND name = 'amy'", {}},
      {"id > -100 AND score < 2 AND score > -2", {6, 8}},
  };
  for (const auto& [where, ids] : kCases) {
    std::string sql = std::string("SELECT id FROM t WHERE ") + where;
    std::vector<Row> want;
    for (int64_t id : ids) want.push_back(Row{Value(id)});
    EXPECT_EQ(Must(sql).rows, want) << sql;
  }
  EXPECT_TRUE(db_.Execute("SELECT id FROM t WHERE missing = 1")
                  .status()
                  .IsNotFound());
}

// NULL never matches a comparison: neither a NULL literal nor a NULL the row
// holds, whatever the operator and whichever path reads the rows. NULL keys
// sort first in an index, so a range scan with no lower bound must start
// above them.
TEST_F(DatabaseTest, NullNeverMatchesAComparison) {
  Must("CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  Must("INSERT INTO t VALUES (1, 10)");
  Must("INSERT INTO t VALUES (2, NULL)");
  Must("INSERT INTO t VALUES (3, 20)");
  const std::vector<Row> kTen = {{Value(int64_t{1})}};
  for (bool indexed : {false, true}) {
    if (indexed) Must("CREATE INDEX idx_b ON t (b)");
    const char* plan = indexed ? "index_range(b)" : "table_scan";
    ExecResult below = Must("SELECT a FROM t WHERE b < 15");
    EXPECT_EQ(below.plan, plan);
    EXPECT_EQ(below.rows, kTen);
    ExecResult first = Must("SELECT a FROM t WHERE b <= 15 ORDER BY b LIMIT 1");
    EXPECT_EQ(first.plan, plan);
    EXPECT_EQ(first.rows, kTen);
    EXPECT_EQ(Must("SELECT a FROM t WHERE b >= 0").rows.size(), 2u);
    for (const char* sql :
         {"SELECT a FROM t WHERE b = NULL", "SELECT a FROM t WHERE a < NULL",
          "SELECT a FROM t WHERE a >= 1 AND b > NULL"}) {
      EXPECT_TRUE(Must(sql).rows.empty()) << sql;
    }
    // COUNT(*) counts rows, NULLs included.
    EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0], Value(int64_t{3}));
  }
}

TEST_F(DatabaseTest, NowMicrosDefaultsToZero) {
  Must("CREATE TABLE hb (id INT PRIMARY KEY, ts BIGINT)");
  Must("INSERT INTO hb VALUES (1, NOW_MICROS())");
  EXPECT_EQ(Must("SELECT ts FROM hb").rows[0][0], Value(int64_t{0}));
  EXPECT_EQ(Must("SELECT id FROM hb WHERE ts <= now_micros()").rows.size(), 1u);
}

TEST_F(DatabaseTest, WritesetApplyRejectsUncoveredWriteset) {
  SetUpPeople();
  Database before;
  before.CopyTablesFrom(db_);
  StatementWriteset ws;  // null row: apply the statement text instead
  Status st = ApplyStatementWriteset(&db_, ws);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
}

TEST_F(DatabaseTest, WritesetApplyInsertsTheCapturedRow) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  StatementWriteset ws{
      std::make_shared<const RowOp>(RowOp{"people", Person(5, "eve", 40)})};
  Status st = ApplyStatementWriteset(&db_, ws);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db_.GetTable("people")->num_rows(), 5u);
  ExecResult r = Must("SELECT name FROM people WHERE age = 40");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eve");
  std::string err;
  EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << err;
}

// A replica that diverged from the master may already hold the captured
// row's key: the insert is refused and the replica keeps what it had.
TEST_F(DatabaseTest, WritesetApplyOfAKeyTheReplicaHoldsChangesNothing) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  Database before;
  before.CopyTablesFrom(db_);
  StatementWriteset ws{
      std::make_shared<const RowOp>(RowOp{"people", Person(2, "bob", 26)})};
  Status st = ApplyStatementWriteset(&db_, ws);
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
  std::string err;
  EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << err;
}

TEST_F(DatabaseTest, WritesetApplyFailsOnMissingTable) {
  SetUpPeople();
  Database before;
  before.CopyTablesFrom(db_);
  StatementWriteset ws{
      std::make_shared<const RowOp>(RowOp{"ghosts", Row{Value(int64_t{1})}})};
  Status st = ApplyStatementWriteset(&db_, ws);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
}

}  // namespace
}  // namespace clouddb::db
