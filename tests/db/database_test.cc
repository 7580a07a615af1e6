#include "db/database.h"
#include "common/status.h"
#include "db/binlog.h"
#include "db/transaction.h"
#include "db/value.h"
#include "db/writeset.h"
#include "db/writeset_apply.h"

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  ExecResult Must(const std::string& sql, Session* session = nullptr) {
    auto r = db_.Execute(sql, session);
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

RowOp PeopleOp(RowOp::Kind kind, Row before, Row after) {
  RowOp op;
  op.kind = kind;
  op.table = "people";
  op.before = std::move(before);
  op.after = std::move(after);
  return op;
}

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

TEST_F(DatabaseTest, UpdateRowsAffected) {
  SetUpPeople();
  ExecResult r = Must("UPDATE people SET age = age + 1 WHERE age = 25");
  EXPECT_EQ(r.rows_affected, 2);
  ExecResult check = Must("SELECT COUNT(*) FROM people WHERE age = 26");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 2);
}

TEST_F(DatabaseTest, UpdateSeesOldRowInAssignments) {
  Must("CREATE TABLE t (a INT, b INT)");
  Must("INSERT INTO t VALUES (1, 10)");
  // Swap using old values: both assignments read the pre-update row.
  Must("UPDATE t SET a = b, b = a");
  ExecResult r = Must("SELECT * FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
}

TEST_F(DatabaseTest, DeleteRowsAffected) {
  SetUpPeople();
  ExecResult r = Must("DELETE FROM people WHERE age < 30");
  EXPECT_EQ(r.rows_affected, 2);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people").rows[0][0].AsInt64(), 2);
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

TEST_F(DatabaseTest, DropTable) {
  SetUpPeople();
  Must("DROP TABLE people");
  EXPECT_EQ(db_.GetTable("people"), nullptr);
  EXPECT_TRUE(db_.Execute("DROP TABLE people").status().IsNotFound());
}

TEST_F(DatabaseTest, TruncateReportsRowCount) {
  SetUpPeople();
  ExecResult r = Must("TRUNCATE people");
  EXPECT_EQ(r.rows_affected, 4);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people").rows[0][0].AsInt64(), 0);
}

TEST_F(DatabaseTest, TableNamesAreCaseInsensitive) {
  Must("CREATE TABLE CamelCase (a INT)");
  Must("INSERT INTO camelcase VALUES (1)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM CAMELCASE").rows[0][0].AsInt64(), 1);
}

// ---- Transactions --------------------------------------------------------

TEST_F(DatabaseTest, ExplicitCommitPersists) {
  SetUpPeople();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'joe', 40)", session.get());
  Must("UPDATE people SET age = 41 WHERE id = 10", session.get());
  Must("COMMIT", session.get());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE id = 10")
                .rows[0][0]
                .AsInt64(),
            1);
}

TEST_F(DatabaseTest, RollbackUndoesInsertUpdateDelete) {
  SetUpPeople();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'joe', 40)", session.get());
  Must("UPDATE people SET age = 99 WHERE id = 1", session.get());
  Must("DELETE FROM people WHERE id = 2", session.get());
  Must("ROLLBACK", session.get());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people").rows[0][0].AsInt64(), 4);
  EXPECT_EQ(Must("SELECT age FROM people WHERE id = 1").rows[0][0].AsInt64(),
            30);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE id = 2")
                .rows[0][0]
                .AsInt64(),
            1);
  std::string err;
  EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << err;
}

TEST_F(DatabaseTest, NestedBeginFails) {
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  auto r = db_.Execute("BEGIN", session.get());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST_F(DatabaseTest, CommitWithoutBeginIsNoOp) {
  EXPECT_TRUE(db_.Execute("COMMIT").ok());
  EXPECT_TRUE(db_.Execute("ROLLBACK").ok());
}

TEST_F(DatabaseTest, FailedStatementAbortsExplicitTransaction) {
  SetUpPeople();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'joe', 40)", session.get());
  auto bad = db_.Execute("INSERT INTO people VALUES (1, 'dup', 0)",
                         session.get());
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(session->in_explicit_transaction());
  // The earlier insert of the transaction must be rolled back too.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE id = 10")
                .rows[0][0]
                .AsInt64(),
            0);
}

TEST_F(DatabaseTest, LockConflictAbortsNoWait) {
  SetUpPeople();
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  Must("BEGIN", s1.get());
  Must("UPDATE people SET age = 1 WHERE id = 1", s1.get());
  // s2 cannot read or write while s1 holds the write lock.
  EXPECT_TRUE(
      db_.Execute("SELECT * FROM people", s2.get()).status().IsAborted());
  EXPECT_TRUE(db_.Execute("DELETE FROM people", s2.get()).status().IsAborted());
  Must("COMMIT", s1.get());
  EXPECT_TRUE(db_.Execute("SELECT * FROM people", s2.get()).ok());
}

TEST_F(DatabaseTest, ConcurrentReadersAllowed) {
  SetUpPeople();
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  Must("BEGIN", s1.get());
  Must("SELECT * FROM people", s1.get());
  EXPECT_TRUE(db_.Execute("SELECT * FROM people", s2.get()).ok());
  // But a writer is blocked by s1's read lock.
  auto s3 = db_.CreateSession();
  EXPECT_TRUE(db_.Execute("DELETE FROM people", s3.get()).status().IsAborted());
  Must("COMMIT", s1.get());
}

TEST_F(DatabaseTest, ReadLockUpgradesWithinSession) {
  SetUpPeople();
  auto s1 = db_.CreateSession();
  Must("BEGIN", s1.get());
  Must("SELECT * FROM people", s1.get());
  // Sole reader can upgrade to writer.
  EXPECT_TRUE(
      db_.Execute("UPDATE people SET age = 1 WHERE id = 1", s1.get()).ok());
  Must("COMMIT", s1.get());
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
  ASSERT_EQ(ev.statements.size(), 1u);
  EXPECT_EQ(ev.statements[0], "INSERT INTO people VALUES (9, 'zed', 1)");
}

TEST_F(DatabaseTest, TransactionIsOneBinlogEvent) {
  SetUpPeople();
  int64_t before = db_.binlog().size();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'x', 1)", session.get());
  Must("INSERT INTO people VALUES (11, 'y', 2)", session.get());
  EXPECT_EQ(db_.binlog().size(), before);  // nothing until commit
  Must("COMMIT", session.get());
  ASSERT_EQ(db_.binlog().size(), before + 1);
  EXPECT_EQ(db_.binlog().At(before).statements.size(), 2u);
}

TEST_F(DatabaseTest, RolledBackTransactionNotLogged) {
  SetUpPeople();
  int64_t before = db_.binlog().size();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'x', 1)", session.get());
  Must("ROLLBACK", session.get());
  EXPECT_EQ(db_.binlog().size(), before);
}

TEST_F(DatabaseTest, FailedAutocommitNotLogged) {
  SetUpPeople();
  int64_t before = db_.binlog().size();
  EXPECT_FALSE(db_.Execute("INSERT INTO people VALUES (1, 'dup', 0)").ok());
  EXPECT_EQ(db_.binlog().size(), before);
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

TEST_F(DatabaseTest, DdlCausesImplicitCommit) {
  SetUpPeople();
  auto session = db_.CreateSession();
  Must("BEGIN", session.get());
  Must("INSERT INTO people VALUES (10, 'x', 1)", session.get());
  Must("CREATE TABLE other (a INT)", session.get());  // implicit commit
  EXPECT_FALSE(session->in_explicit_transaction());
  // The insert survived the implicit commit; rollback now has nothing.
  Must("ROLLBACK", session.get());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE id = 10")
                .rows[0][0]
                .AsInt64(),
            1);
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
  StatementWriteset ws;  // covered = false: apply the statement text instead
  ws.ops.push_back(PeopleOp(RowOp::Kind::kInsert, {}, Person(5, "eve", 40)));
  auto session = db_.CreateSession();
  Status st = ApplyStatementWriteset(&db_, session.get(), ws).status();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
}

TEST_F(DatabaseTest, WritesetApplyUnwindsOnDivergedBeforeImage) {
  SetUpPeople();
  Must("CREATE INDEX idx_age ON people (age)");
  Database before;
  before.CopyTablesFrom(db_);
  StatementWriteset ws;
  ws.covered = true;
  ws.ops.push_back(PeopleOp(RowOp::Kind::kInsert, {}, Person(5, "eve", 40)));
  ws.ops.push_back(PeopleOp(RowOp::Kind::kUpdate, Person(2, "bob", 25),
                            Person(2, "bob", 26)));
  ws.ops.push_back(PeopleOp(RowOp::Kind::kDelete, Person(3, "cat", 35), {}));
  // This replica's dan is 25, not 99: the fourth op finds a diverged row.
  ws.ops.push_back(PeopleOp(RowOp::Kind::kDelete, Person(4, "dan", 99), {}));
  auto session = db_.CreateSession();
  Status st = ApplyStatementWriteset(&db_, session.get(), ws).status();
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_NE(st.ToString().find("replica diverged"), std::string::npos);
  // The three applied ops were inverted: the statement stayed atomic.
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
  std::string err;
  EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << err;
  // And its locks were released.
  auto other = db_.CreateSession();
  EXPECT_TRUE(db_.lock_manager().AcquireWrite(other->id(), "people").ok());
  db_.lock_manager().ReleaseAll(other->id());
}

TEST_F(DatabaseTest, WritesetApplyUnwindsOnMissingTable) {
  SetUpPeople();
  Database before;
  before.CopyTablesFrom(db_);
  StatementWriteset ws;
  ws.covered = true;
  ws.ops.push_back(PeopleOp(RowOp::Kind::kInsert, {}, Person(5, "eve", 40)));
  RowOp ghost = PeopleOp(RowOp::Kind::kInsert, {}, Row{Value(int64_t{1})});
  ghost.table = "ghosts";
  ws.ops.push_back(ghost);
  auto session = db_.CreateSession();
  Status st = ApplyStatementWriteset(&db_, session.get(), ws).status();
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
  EXPECT_EQ(Must("SELECT COUNT(*) FROM people WHERE id = 5").rows[0][0],
            Value(int64_t{0}));
}

TEST_F(DatabaseTest, WritesetApplyAbortsOnHeldWriteLock) {
  SetUpPeople();
  Database before;
  before.CopyTablesFrom(db_);
  auto holder = db_.CreateSession();
  ASSERT_TRUE(db_.lock_manager().AcquireWrite(holder->id(), "people").ok());
  StatementWriteset ws;
  ws.covered = true;
  ws.ops.push_back(PeopleOp(RowOp::Kind::kInsert, {}, Person(5, "eve", 40)));
  auto session = db_.CreateSession();
  Status st = ApplyStatementWriteset(&db_, session.get(), ws).status();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(Database::ContentsEqual(before, db_));
  db_.lock_manager().ReleaseAll(holder->id());
}

}  // namespace
}  // namespace clouddb::db
