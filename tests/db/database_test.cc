#include "db/database.h"
#include "common/status.h"
#include "db/binlog.h"
#include "db/value.h"
#include "db/writeset.h"
#include "db/writeset_apply.h"

#include <memory>

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

TEST_F(DatabaseTest, FlippedComparisonUsesIndex) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE 2 = id");
  EXPECT_EQ(r.plan, "pk_eq(id)");
  ASSERT_EQ(r.rows.size(), 1u);
  ExecResult r2 = Must("SELECT * FROM people WHERE 2 < id");
  EXPECT_EQ(r2.plan, "index_range(id)");
  EXPECT_EQ(r2.rows.size(), 2u);
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
  ExecResult r = Must("SELECT name FROM people ORDER BY age DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "cat");
  EXPECT_EQ(r.rows[1][0].AsString(), "ann");
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
}

TEST_F(DatabaseTest, LimitZero) {
  SetUpPeople();
  EXPECT_EQ(Must("SELECT * FROM people LIMIT 0").rows.size(), 0u);
}

TEST_F(DatabaseTest, ProjectionSubset) {
  SetUpPeople();
  ExecResult r = Must("SELECT age, id FROM people WHERE id = 1");
  EXPECT_EQ(r.column_names, (std::vector<std::string>{"age", "id"}));
  EXPECT_EQ(r.rows[0][0].AsInt64(), 30);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
}

TEST_F(DatabaseTest, InsertWithColumnListFillsNulls) {
  Must("CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c DOUBLE)");
  Must("INSERT INTO t (a) VALUES (1)");
  ExecResult r = Must("SELECT * FROM t");
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
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

// ---- Extended predicates & aggregates -------------------------------------

TEST_F(DatabaseTest, OrPredicateSelectsUnion) {
  SetUpPeople();
  ExecResult r = Must("SELECT name FROM people WHERE id = 1 OR age = 25");
  EXPECT_EQ(r.rows.size(), 3u);  // ann + bob + dan
  // OR disables index constraint extraction -> full scan.
  EXPECT_EQ(r.plan, "table_scan");
}

TEST_F(DatabaseTest, OrWithinAndStillUsesIndexFromConjunct) {
  SetUpPeople();
  ExecResult r = Must(
      "SELECT * FROM people WHERE id = 2 AND (age = 25 OR age = 30)");
  EXPECT_EQ(r.plan, "pk_eq(id)");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(DatabaseTest, InListPredicate) {
  SetUpPeople();
  ExecResult r = Must("SELECT name FROM people WHERE id IN (1, 3, 99)");
  EXPECT_EQ(r.rows.size(), 2u);
  ExecResult nr = Must("SELECT name FROM people WHERE id NOT IN (1, 3)");
  EXPECT_EQ(nr.rows.size(), 2u);
}

TEST_F(DatabaseTest, BetweenUsesIndexRange) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE id BETWEEN 2 AND 3");
  EXPECT_EQ(r.plan, "index_range(id)");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, NotPredicate) {
  SetUpPeople();
  ExecResult r = Must("SELECT * FROM people WHERE NOT age = 25");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, AggregatesOverWhere) {
  SetUpPeople();
  ExecResult r = Must(
      "SELECT MIN(age), MAX(age), SUM(age), AVG(age), COUNT(*) FROM people "
      "WHERE age >= 25");
  ASSERT_EQ(r.rows.size(), 1u);
  const Row& row = r.rows[0];
  EXPECT_EQ(row[0], Value(int64_t{25}));
  EXPECT_EQ(row[1], Value(int64_t{35}));
  EXPECT_EQ(row[2], Value(int64_t{115}));
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 115.0 / 4.0);
  EXPECT_EQ(row[4], Value(int64_t{4}));
  EXPECT_EQ(r.column_names[0], "MIN(age)");
  EXPECT_EQ(r.column_names[4], "COUNT(*)");
}

TEST_F(DatabaseTest, AggregatesOnEmptySetAreNullExceptCount) {
  SetUpPeople();
  ExecResult r = Must(
      "SELECT MIN(age), SUM(age), COUNT(*) FROM people WHERE age > 1000");
  const Row& row = r.rows[0];
  EXPECT_TRUE(row[0].is_null());
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2], Value(int64_t{0}));
}

TEST_F(DatabaseTest, AggregatesSkipNulls) {
  Must("CREATE TABLE t (a INT, b INT)");
  Must("INSERT INTO t VALUES (1, 10)");
  Must("INSERT INTO t VALUES (2, NULL)");
  Must("INSERT INTO t VALUES (3, 20)");
  ExecResult r = Must("SELECT COUNT(*), SUM(b), AVG(b), MIN(b) FROM t");
  const Row& row = r.rows[0];
  EXPECT_EQ(row[0], Value(int64_t{3}));  // COUNT(*) counts rows
  EXPECT_EQ(row[1], Value(int64_t{30}));
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 15.0);
  EXPECT_EQ(row[3], Value(int64_t{10}));
  // IS [NOT] NULL filters on the stored NULL.
  ExecResult null_b = Must("SELECT a FROM t WHERE b IS NULL");
  ASSERT_EQ(null_b.rows.size(), 1u);
  EXPECT_EQ(null_b.rows[0][0], Value(int64_t{2}));
  EXPECT_EQ(Must("SELECT a FROM t WHERE b IS NOT NULL").rows.size(), 2u);
}

TEST_F(DatabaseTest, SumOverStringColumnRejected) {
  SetUpPeople();
  EXPECT_FALSE(db_.Execute("SELECT SUM(name) FROM people").ok());
  // MIN/MAX over strings are fine (lexicographic).
  ExecResult r = Must("SELECT MIN(name), MAX(name) FROM people");
  EXPECT_EQ(r.rows[0][0], Value("ann"));
  EXPECT_EQ(r.rows[0][1], Value("dan"));
}

TEST_F(DatabaseTest, AvgOfDoubleColumn) {
  Must("CREATE TABLE m (v DOUBLE)");
  Must("INSERT INTO m VALUES (1.5)");
  Must("INSERT INTO m VALUES (2.5)");
  ExecResult r = Must("SELECT AVG(v), SUM(v) FROM m");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 4.0);
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
