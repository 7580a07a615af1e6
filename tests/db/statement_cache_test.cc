#include "db/statement_cache.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "db/database.h"
#include "db/sql_lexer.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

using StrVec = std::vector<std::string>;

// ---------------------------------------------------------------------------
// Fingerprinting

// The fused single-pass scan (the hit path) must agree byte for byte — and
// value for value — with the reference token-stream construction on every
// lexical shape the dialect can produce.
TEST(Fingerprint, FusedScanMatchesTokenConstruction) {
  const StrVec corpus = {
      "SELECT * FROM t WHERE a = 5",
      "select  A , b  from T where a >= 1 AND b <> 'x' or c != .5",
      "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, '')",
      "UPDATE t SET a = -5, b = 1.5e+3 WHERE c BETWEEN 2 AND 7",
      "DELETE FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL",
      "SELECT MIN(Age), COUNT(*) FROM people ORDER BY id DESC LIMIT 10",
      "SELECT NOW_MICROS() FROM t WHERE ts < NOW_MICROS() - 100",
      "CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(32) NOT NULL)",
      "BEGIN", "COMMIT", "ROLLBACK", "",
      "   SELECT\t*\nFROM t  ",
  };
  for (const std::string& sql : corpus) {
    std::vector<Value> scan_params, token_params;
    auto scanned = FingerprintSql(sql, &scan_params);
    ASSERT_TRUE(scanned.ok()) << sql;
    auto tokens = Tokenize(sql);
    ASSERT_TRUE(tokens.ok()) << sql;
    EXPECT_EQ(*scanned, FingerprintTokens(*tokens, &token_params)) << sql;
    EXPECT_EQ(scan_params, token_params) << sql;
  }
}

TEST(Fingerprint, FusedScanMatchesTokenizeErrors) {
  for (const std::string& sql :
       {"SELECT 'unterminated", "SELECT @ FROM t",
        "SELECT 99999999999999999999 FROM t"}) {
    std::vector<Value> params;
    auto scanned = FingerprintSql(sql, &params);
    auto tokens = Tokenize(sql);
    ASSERT_FALSE(scanned.ok()) << sql;
    ASSERT_FALSE(tokens.ok()) << sql;
    EXPECT_EQ(scanned.status().ToString(), tokens.status().ToString()) << sql;
  }
}

TEST(Fingerprint, SameShapeDifferentLiteralsShareOneTemplate) {
  StatementCache cache;
  auto a = cache.Prepare("SELECT * FROM t WHERE a = 5 AND b = 'x'");
  auto b = cache.Prepare("select *  from t WHERE a=99 and B = 'yy'");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // "b" vs "B" differ (identifier case is preserved) — use matching spelling
  // to show literal masking and whitespace/keyword folding alone.
  auto c = cache.Prepare("select *  from t WHERE a=99 and b = 'yy'");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->prepared.get(), c->prepared.get());  // literally one template
  EXPECT_NE(a->prepared.get(), b->prepared.get());
  EXPECT_EQ(a->params, (std::vector<Value>{Value(int64_t{5}), Value("x")}));
  EXPECT_EQ(c->params, (std::vector<Value>{Value(int64_t{99}), Value("yy")}));
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
}

// Statements with different semantics must never collapse to one template.
TEST(Fingerprint, NeverConflatesDifferentSemantics) {
  const StrVec distinct = {
      "SELECT a FROM t WHERE x = 1",
      "SELECT a, b FROM t WHERE x = 1",      // different column list
      "SELECT a FROM t WHERE x = NOW_MICROS()",  // function, not literal
      "SELECT a FROM t WHERE x IN (1)",
      "SELECT a FROM t WHERE x IN (1, 2)",   // different IN-list arity
      "SELECT a FROM t WHERE x = -1",        // unary minus is shape, not value
      "SELECT MIN(Age) FROM t",
      "SELECT MIN(age) FROM t",  // output column name echoes the spelling
      "SELECT a FROM t WHERE x = 1 LIMIT 2",
  };
  StatementCache cache;
  for (const std::string& sql : distinct) {
    ASSERT_TRUE(cache.Prepare(sql).ok()) << sql;
  }
  EXPECT_EQ(cache.stats().misses, static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), distinct.size());
}

TEST(Fingerprint, DdlAndTransactionControlBypass) {
  StatementCache cache;
  for (const std::string& sql :
       {"CREATE TABLE t (a INT PRIMARY KEY)", "CREATE INDEX i ON t (a)",
        "DROP TABLE t", "TRUNCATE t", "BEGIN", "COMMIT", "ROLLBACK", ""}) {
    auto call = cache.Prepare(sql);
    EXPECT_FALSE(call.ok()) << sql;
    EXPECT_EQ(call.status().code(), StatusCode::kNotSupported) << sql;
  }
  EXPECT_EQ(cache.stats().bypasses, 8);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// LRU behavior

TEST(StatementCacheLru, RecencyAndEvictionAreDeterministic) {
  StatementCache cache(/*capacity=*/2);
  (void)cache.Prepare("SELECT a FROM t");
  (void)cache.Prepare("SELECT b FROM t");
  EXPECT_EQ(cache.FingerprintsByRecency(),
            (StrVec{"SELECT b FROM t ", "SELECT a FROM t "}));
  // Touch `a`: becomes MRU.
  (void)cache.Prepare("SELECT a FROM t");
  EXPECT_EQ(cache.FingerprintsByRecency(),
            (StrVec{"SELECT a FROM t ", "SELECT b FROM t "}));
  // Insert a third shape: `b` (now LRU) is evicted.
  (void)cache.Prepare("SELECT c FROM t");
  EXPECT_EQ(cache.FingerprintsByRecency(),
            (StrVec{"SELECT c FROM t ", "SELECT a FROM t "}));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(StatementCacheLru, IdenticalTextMemoCountsAsHitAndTouches) {
  StatementCache cache;
  (void)cache.Prepare("SELECT a FROM t WHERE x = 1");
  (void)cache.Prepare("SELECT b FROM t");
  // Same text as the last call: served from the memo.
  auto memo = cache.Prepare("SELECT b FROM t");
  ASSERT_TRUE(memo.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  // And the same text after an intervening statement: the scan-hit path.
  (void)cache.Prepare("SELECT a FROM t WHERE x = 2");
  auto scan = cache.Prepare("SELECT b FROM t");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->prepared.get(), memo->prepared.get());
  EXPECT_EQ(cache.stats().hits, 3);  // memo, the x=2 hit, the scan hit
  EXPECT_EQ(cache.FingerprintsByRecency().front(), "SELECT b FROM t ");
}

TEST(StatementCacheLru, InvalidateDropsEverythingIncludingMemo) {
  StatementCache cache;
  (void)cache.Prepare("SELECT a FROM t WHERE x = 1");
  (void)cache.Prepare("SELECT a FROM t WHERE x = 1");
  EXPECT_EQ(cache.stats().hits, 1);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1);
  auto call = cache.Prepare("SELECT a FROM t WHERE x = 1");
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(cache.stats().misses, 2);  // re-parsed, not served from the memo
}

// An execution holding a PreparedCall must survive eviction of its entry.
TEST(StatementCacheLru, InFlightCallSurvivesEviction) {
  StatementCache cache(/*capacity=*/1);
  auto call = cache.Prepare("SELECT a FROM t WHERE x = 1");
  ASSERT_TRUE(call.ok());
  (void)cache.Prepare("SELECT b FROM t");  // evicts the first template
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(call->prepared->fingerprint, "SELECT a FROM t WHERE x = ? ");
  EXPECT_TRUE(std::holds_alternative<SelectStatement>(
      call->prepared->statement));
}

// ---------------------------------------------------------------------------
// Through the Database: DDL invalidation and plan re-derivation

class CachedDatabaseTest : public ::testing::Test {
 protected:
  ExecResult Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  Database db_;
};

TEST_F(CachedDatabaseTest, DdlInvalidatesCachedPlans) {
  Must("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)");
  for (int i = 0; i < 20; ++i) {
    Must(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i % 5));
  }
  EXPECT_GT(db_.statement_cache().size(), 0u);
  // Cache the SELECT's template and plan: no index on d -> table scan.
  ExecResult before = Must("SELECT id FROM t WHERE d = 3");
  EXPECT_EQ(before.plan, "table_scan");
  // DDL drops every cached template...
  Must("CREATE INDEX idx_d ON t (d)");
  EXPECT_EQ(db_.statement_cache().size(), 0u);
  EXPECT_GT(db_.statement_cache().stats().invalidations, 0);
  // ...and the replan through the fresh template picks up the new index.
  ExecResult after = Must("SELECT id FROM t WHERE d = 3");
  EXPECT_EQ(after.plan, "index_eq(d)");
  EXPECT_EQ(after.rows, before.rows);
}

TEST_F(CachedDatabaseTest, DropAndRecreateResolvesAgainstNewCatalog) {
  Must("CREATE TABLE t (a BIGINT PRIMARY KEY)");
  Must("INSERT INTO t VALUES (1)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 1);
  Must("DROP TABLE t");
  Must("CREATE TABLE t (a BIGINT PRIMARY KEY)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 0);
}

TEST_F(CachedDatabaseTest, CompiledStatementHeldAcrossDdlRunsOnNewCatalog) {
  Must("CREATE TABLE t (id BIGINT PRIMARY KEY, n BIGINT, s TEXT)");
  for (int i = 0; i < 30; ++i) {
    Must(StrFormat("INSERT INTO t VALUES (%d, %d, 'x%d')", i, i % 7, i % 3));
  }
  const std::string select = "SELECT id FROM t WHERE n = 3 AND s = 'x1'";
  ExecResult before = Must(select);
  // Keep the cached template alive across the DDL, as an in-flight routed
  // execution would.
  auto compiled = db_.Compile(select);
  ASSERT_TRUE(compiled.ok());
  ASSERT_NE(compiled->params(), nullptr);

  // DDL drops every cached template.
  Must("DROP TABLE t");
  EXPECT_EQ(db_.statement_cache().size(), 0u);

  // Re-create the table with the filtered columns at different slots (and
  // an extra column in between): a statement that ran by its old column
  // slots would filter id against 'n = 3' and s against a double.
  Must("CREATE TABLE t (id BIGINT PRIMARY KEY, s TEXT, extra DOUBLE, "
       "n BIGINT)");
  for (int i = 0; i < 30; ++i) {
    Must(StrFormat("INSERT INTO t VALUES (%d, 'x%d', 0.5, %d)", i, i % 3,
                   i % 7));
  }
  // The survivor resolves its column names against the live schema when it
  // runs, so it matches a fresh statement exactly.
  auto stale = db_.Execute(*compiled, select);
  ASSERT_TRUE(stale.ok());
  ExecResult fresh = Must(select);
  EXPECT_EQ(stale->rows, fresh.rows);
  EXPECT_EQ(stale->rows, before.rows);  // same logical data, same ids
}

// ---------------------------------------------------------------------------
// CompileSql: the one compile step behind every executor of SQL text

TEST(CompileSql, TemplateWhenTheCacheAdmitsTheShapeElsePlainParse) {
  StatementCache cache;
  // Cache on, cacheable shape: the template, this text's literals bound.
  auto dml = CompileSql(&cache, "SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(dml.ok());
  ASSERT_NE(dml->params(), nullptr);
  EXPECT_EQ(*dml->params(), std::vector<Value>{Value(int64_t{5})});
  EXPECT_EQ(cache.stats().misses, 1);
  // Cache on, a shape it bypasses: a plain parse.
  auto ddl = CompileSql(&cache, "CREATE TABLE t (a INT)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_EQ(ddl->params(), nullptr);
  EXPECT_TRUE(std::holds_alternative<CreateTableStatement>(ddl->statement()));
  EXPECT_EQ(cache.stats().bypasses, 1);
  // Cache off: a plain parse even of a cacheable shape; the cache is idle.
  auto off = CompileSql(nullptr, "SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->params(), nullptr);
  EXPECT_EQ(cache.stats().hits, 0);
  // A second text of the same shape: the same template, its own literals.
  auto same_shape = CompileSql(&cache, "SELECT a FROM t WHERE b = 6");
  ASSERT_TRUE(same_shape.ok());
  EXPECT_EQ(&same_shape->statement(), &dml->statement());
  EXPECT_EQ(*same_shape->params(), std::vector<Value>{Value(int64_t{6})});
  EXPECT_EQ(cache.stats().hits, 1);
  // Copies share the template or the parse.
  CompiledSql dml_copy = *dml;
  CompiledSql off_copy = *off;
  EXPECT_EQ(&dml_copy.statement(), &dml->statement());
  EXPECT_EQ(&off_copy.statement(), &off->statement());
}

TEST(CompileSql, FailsOnlyWhenThePlainParseFails) {
  StatementCache cache;
  // A cacheable shape whose template does not parse, a tokenizer error and
  // an uncacheable shape: each falls back to the plain parse, so the error
  // is the cache-off error.
  for (const std::string sql :
       {"SELECT FROM t WHERE", "SELECT 'unterminated", "NOT SQL"}) {
    auto on = CompileSql(&cache, sql);
    auto off = CompileSql(nullptr, sql);
    ASSERT_FALSE(on.ok()) << sql;
    ASSERT_FALSE(off.ok()) << sql;
    EXPECT_EQ(on.status().ToString(), off.status().ToString()) << sql;
  }
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cache on/off equivalence: byte-identical results, plans, and errors

void ExpectEquivalent(const StrVec& statements) {
  DatabaseOptions off_options;
  off_options.statement_cache = false;
  Database on;   // cache defaults on
  Database off(std::move(off_options));
  for (const std::string& sql : statements) {
    auto a = on.Execute(sql);
    auto b = off.Execute(sql);
    ASSERT_EQ(a.ok(), b.ok()) << sql;
    if (!a.ok()) {
      EXPECT_EQ(a.status().ToString(), b.status().ToString()) << sql;
      continue;
    }
    EXPECT_EQ(a->column_names, b->column_names) << sql;
    EXPECT_EQ(a->rows, b->rows) << sql;
    EXPECT_EQ(a->rows_affected, b->rows_affected) << sql;
    EXPECT_EQ(a->rows_examined, b->rows_examined) << sql;
    EXPECT_EQ(a->plan, b->plan) << sql;
    EXPECT_EQ(a->scan_ordered_by, b->scan_ordered_by) << sql;
  }
  EXPECT_GT(on.statement_cache().stats().hits, 0);
  EXPECT_EQ(off.statement_cache().stats().hits, 0);
}

TEST(CacheEquivalence, RepeatedShapesPlansErrorsAndEdgeLiterals) {
  StrVec statements = {
      "CREATE TABLE people (id BIGINT PRIMARY KEY, name TEXT NOT NULL, "
      "Age INT, score DOUBLE)",
      "CREATE INDEX idx_age ON people (Age)",
  };
  for (int i = 1; i <= 30; ++i) {
    statements.push_back(StrFormat(
        "INSERT INTO people VALUES (%d, 'p%d', %d, %d.5)", i, i, 20 + i % 9,
        i));
  }
  StrVec probes = {
      // Repeated shapes with fresh literals: point, range, scan.
      "SELECT * FROM people WHERE id = 7",
      "SELECT * FROM people WHERE id = 23",
      "SELECT name FROM people WHERE Age >= 21 AND Age <= 24 ORDER BY Age",
      "SELECT name FROM people WHERE Age >= 25 AND Age <= 28 ORDER BY Age",
      // LIMIT binds through a parameter slot; 0 and repeated values too.
      "SELECT id FROM people ORDER BY id LIMIT 5",
      "SELECT id FROM people ORDER BY id LIMIT 0",
      "SELECT id FROM people ORDER BY id LIMIT 5",
      // Negative literals lex as unary minus over a masked literal.
      "SELECT id FROM people WHERE id > -3 AND score > -1.5 LIMIT 3",
      // Aggregate output columns echo the query's identifier spelling.
      "SELECT MIN(Age), MAX(Age), AVG(score) FROM people",
      "SELECT COUNT(*) FROM people WHERE name = 'p3'",
      // String edge cases: '' escape, empty string.
      "SELECT id FROM people WHERE name = 'it''s'",
      "SELECT id FROM people WHERE name = ''",
      // Writes through the cache.
      "UPDATE people SET Age = 99 WHERE id = 5",
      "UPDATE people SET Age = 98 WHERE id = 6",
      "DELETE FROM people WHERE id = 30",
      // Errors must be byte-identical: unknown table, bad syntax, bad lex,
      // negative LIMIT (a *valid* template whose bound value is rejected).
      "SELECT * FROM nope WHERE id = 1",
      "SELECT FROM WHERE",
      "SELECT 'unterminated",
      "SELECT id FROM people LIMIT 0 - 1",
      // Uncacheable statements interleaved.
      "BEGIN", "COMMIT",
      "SELECT * FROM people WHERE id = 7",
  };
  statements.insert(statements.end(), probes.begin(), probes.end());
  ExpectEquivalent(statements);
}

// ---------------------------------------------------------------------------
// Replication: caches warm independently on both ends and converge

TEST(CachedReplication, MasterAndSlavesConvergeWithWarmCaches) {
  sim::Simulation sim;
  cloud::CloudOptions options;
  options.latency_jitter_sigma = 0.0;
  options.cpu_speed_cov = 0.0;
  options.max_initial_clock_offset = 0;
  options.max_clock_drift_ppm = 0.0;
  cloud::CloudProvider provider(&sim, options, 1);
  repl::ClusterConfig config;
  config.num_slaves = 2;
  repl::ReplicationCluster cluster(&provider, config);

  ASSERT_TRUE(cluster.master()
                  ->ExecuteDirect(
                      "CREATE TABLE t (a BIGINT PRIMARY KEY, b BIGINT)")
                  .ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(cluster.master()
                    ->ExecuteDirect(StrFormat(
                        "INSERT INTO t VALUES (%d, %d)", i, i * i))
                    .ok());
  }
  sim.Run();  // drain replication
  EXPECT_TRUE(cluster.FullyReplicated());
  EXPECT_TRUE(cluster.Converged());
  // One INSERT shape, parsed once per replica: the master's cache served the
  // repeats, and each slave's apply loop prepared through its own cache.
  EXPECT_GT(cluster.master()->database().statement_cache().stats().hits, 20);
  for (int i = 0; i < 2; ++i) {
    const StatementCacheStats& stats =
        cluster.slave(i)->database().statement_cache().stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_GT(stats.hits, 20);
  }
}

}  // namespace
}  // namespace clouddb::db
