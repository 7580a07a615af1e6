#include "db/statement_cache.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "db/schema.h"
#include "db/sql_lexer.h"
#include "db/sql_parser.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

using StrVec = std::vector<std::string>;

/// A template written out field by field: two compiles give the same
/// template when these strings are equal.
std::string Describe(const Statement& stmt) {
  auto operand = [](const Operand& op) {
    return StrFormat(" (%d %zu)", static_cast<int>(op.kind), op.param_index);
  };
  std::string out;
  if (const auto* s = std::get_if<SelectStatement>(&stmt)) {
    out = StrFormat("SELECT %s star=%d count=%d order=%s", s->table.c_str(),
                    s->star, s->count_star, s->order_by.c_str());
    for (const std::string& column : s->columns) out += " " + column;
    for (const Comparison& c : s->where) {
      out += StrFormat(" %s %d", c.column.c_str(), static_cast<int>(c.op)) +
             operand(c.value);
    }
    if (s->limit.has_value()) out += " limit" + operand(*s->limit);
  } else if (const auto* s = std::get_if<InsertStatement>(&stmt)) {
    out = "INSERT " + s->table;
    for (const std::string& column : s->columns) out += " " + column;
    for (const Operand& value : s->values) out += operand(value);
  } else if (const auto* s = std::get_if<CreateTableStatement>(&stmt)) {
    out = "CREATE TABLE " + s->table;
    for (const ColumnDef& c : s->columns) {
      out += StrFormat(" %s %d %d %d", c.name.c_str(), static_cast<int>(c.type),
                       c.not_null, c.primary_key);
    }
  } else {
    const auto& index = std::get<CreateIndexStatement>(stmt);
    out = "CREATE INDEX " + index.index + " " + index.table + " " +
          index.column;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprinting

/// Reference fingerprint construction from Tokenize's token stream: every
/// token's text with one trailing space, each literal as `?` with its value
/// appended to `params`.
std::string FingerprintTokens(const std::vector<Token>& tokens,
                              std::vector<Value>* params) {
  std::string fp;
  for (const Token& t : tokens) {
    switch (t.type) {
      case TokenType::kInteger:
        params->emplace_back(t.int_value);
        fp += "? ";
        break;
      case TokenType::kString:
        params->emplace_back(t.text);
        fp += "? ";
        break;
      case TokenType::kEnd:
        break;
      default:
        fp += t.text;
        fp += ' ';
        break;
    }
  }
  return fp;
}

// The fused single-pass scan (the hit path) must agree byte for byte — and
// value for value — with the reference token-stream construction on every
// lexical shape the dialect can produce.
TEST(Fingerprint, FusedScanMatchesTokenConstruction) {
  const StrVec corpus = {
      "SELECT * FROM t WHERE a = 5",
      "select  A , b  from T where a >= 1 AND b <> 'x' or c != .5",
      "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, '')",
      "INSERT INTO t VALUES (-5, 1.5e+3, 7E2, 2.)",
      "SELECT a FROM t WHERE x>-1 AND y < -.5e-3 AND z = - 4 AND w=a-1",
      "SELECT a FROM t WHERE c BETWEEN 2 AND 7 AND a IN (1, 2, 3) AND "
      "b IS NOT NULL",
      "SELECT MIN(Age), COUNT(*) FROM people ORDER BY id DESC LIMIT 10",
      "SELECT NOW_MICROS() FROM t WHERE ts < NOW_MICROS() - 100",
      "CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(32) NOT NULL)",
      "",
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
  for (const char* sql :
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
  // A number's sign is part of the literal, so a negative one binds to the
  // same template too.
  auto d = cache.Prepare("SELECT * FROM t WHERE a = -5 AND b = 'x'");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(a->statement.get(), c->statement.get());  // one template
  EXPECT_EQ(a->statement.get(), d->statement.get());
  EXPECT_NE(a->statement.get(), b->statement.get());
  EXPECT_EQ(a->params, (std::vector<Value>{Value(int64_t{5}), Value("x")}));
  EXPECT_EQ(c->params, (std::vector<Value>{Value(int64_t{99}), Value("yy")}));
  EXPECT_EQ(d->params, (std::vector<Value>{Value(int64_t{-5}), Value("x")}));
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().misses, 2);
}

// Statements with different semantics must never collapse to one template.
TEST(Fingerprint, NeverConflatesDifferentSemantics) {
  const StrVec distinct = {
      "SELECT a FROM t WHERE x = 1",
      "SELECT a, b FROM t WHERE x = 1",          // different column list
      "SELECT a FROM t WHERE x = NOW_MICROS()",  // the clock, not a literal
      "SELECT a FROM t WHERE x = NULL",          // NULL is not masked
      "SELECT a FROM t WHERE x < 1",             // different operator
      "SELECT a FROM t WHERE x = 1 AND y = 1",   // more comparisons
      "SELECT a FROM t WHERE X = 1",  // error texts echo the spelling
      "SELECT a FROM t WHERE x = 1 ORDER BY a",
      "SELECT a FROM t WHERE x = 1 LIMIT 2",
      "SELECT COUNT(*) FROM t WHERE x = 1",
  };
  StatementCache cache;
  for (const std::string& sql : distinct) {
    ASSERT_TRUE(cache.Prepare(sql).ok()) << sql;
  }
  EXPECT_EQ(cache.stats().misses, static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), distinct.size());
}

// DDL is parsed and not remembered; empty input and texts that are not
// statements at all (tables are append-only) fail with ParseSql's error.
// Each counts as a bypass.
TEST(Fingerprint, DdlAndUnparsedTextsBypass) {
  StatementCache cache;
  for (const char* sql :
       {"CREATE TABLE t (a INT PRIMARY KEY)", "CREATE INDEX i ON t (a)"}) {
    auto call = cache.Prepare(sql);
    ASSERT_TRUE(call.ok()) << sql;
    EXPECT_TRUE(IsDdl(*call->statement)) << sql;
  }
  for (const char* sql : {"", "UPDATE t SET a = 1", "DELETE FROM t WHERE a = 1",
                          "DROP TABLE t", "TRUNCATE t"}) {
    auto call = cache.Prepare(sql);
    ASSERT_FALSE(call.ok()) << sql;
    EXPECT_EQ(call.status().ToString(), ParseSql(sql).status().ToString())
        << sql;
  }
  EXPECT_EQ(cache.stats().bypasses, 7);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// The memo: a map keyed by the fingerprint

// Every shape stays remembered, however many there are: a second pass over
// more shapes than a workload issues is all hits, on the first pass's
// templates.
TEST(StatementCacheMemo, RemembersEveryShape) {
  StatementCache cache;
  std::vector<std::shared_ptr<const Statement>> first;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 300; ++i) {
      auto call = cache.Prepare(StrFormat("SELECT c%d FROM t WHERE a = %d", i,
                                          pass));
      ASSERT_TRUE(call.ok()) << i;
      if (pass == 0) {
        first.push_back(call->statement);
      } else {
        EXPECT_EQ(call->statement.get(), first[static_cast<size_t>(i)].get());
      }
    }
  }
  EXPECT_EQ(cache.size(), 300u);
  EXPECT_EQ(cache.stats().misses, 300);
  EXPECT_EQ(cache.stats().hits, 300);
}

// ---------------------------------------------------------------------------
// Through the Database: templates outlive DDL, plans follow the catalog

class CachedDatabaseTest : public ::testing::Test {
 protected:
  ExecResult Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  Database db_;
};

// A template remembered before DDL stays remembered: the next text of its
// shape is a hit, and its execution plans against the new index.
TEST_F(CachedDatabaseTest, TemplateRememberedBeforeDdlPlansTheNewIndex) {
  Must("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)");
  for (int i = 0; i < 20; ++i) {
    Must(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i % 5));
  }
  // Remember the SELECT's template: no index on d -> table scan.
  ExecResult before = Must("SELECT id FROM t WHERE d = 3");
  EXPECT_EQ(before.plan, "table_scan");
  size_t remembered = db_.statement_cache().size();
  Must("CREATE INDEX idx_d ON t (d)");
  EXPECT_EQ(db_.statement_cache().size(), remembered);
  int64_t hits = db_.statement_cache().stats().hits;
  int64_t misses = db_.statement_cache().stats().misses;
  ExecResult after = Must("SELECT id FROM t WHERE d = 3");
  EXPECT_EQ(db_.statement_cache().stats().hits, hits + 1);
  EXPECT_EQ(db_.statement_cache().stats().misses, misses);
  EXPECT_EQ(after.plan, "index_eq(d)");
  EXPECT_EQ(after.rows, before.rows);
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
  ASSERT_TRUE(compiled->ok());
  ASSERT_EQ(compiled->params().size(), 2u);

  // The held one still runs after DDL, and plans against the new index.
  Must("CREATE INDEX idx_n ON t (n)");
  auto held = db_.Execute(compiled);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held->plan, "index_eq(n)");
  EXPECT_EQ(held->rows, before.rows);

  // A catalog with the filtered columns at different slots (and an extra
  // column in between), as another replica's could be: a statement that
  // ran by its compile-time column slots would compare s with 3 and extra
  // with 'x1'.
  Database other;
  ASSERT_TRUE(other
                  .Execute("CREATE TABLE t (id BIGINT PRIMARY KEY, s TEXT, "
                           "extra TEXT, n BIGINT)")
                  .ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(other
                    .Execute(StrFormat("INSERT INTO t VALUES (%d, 'x%d', "
                                       "'x1', %d)",
                                       i, i % 3, i % 7))
                    .ok());
  }
  // The compiled statement resolves its column names against the catalog
  // it runs on, so it matches a fresh statement there exactly.
  auto elsewhere = other.Execute(compiled);
  ASSERT_TRUE(elsewhere.ok());
  auto fresh = other.Execute(select);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(elsewhere->rows, fresh->rows);
  EXPECT_EQ(elsewhere->rows, before.rows);  // same logical data, same ids
}

// ---------------------------------------------------------------------------
// CompileSql: the one compile step behind every executor of SQL text

TEST(CompileSql, OneFormWithTheCacheOnOrOff) {
  StatementCache cache;
  // Cache on: the template, this text's literals bound.
  auto dml = CompileSql(&cache, "SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(dml->ok());
  EXPECT_EQ(dml->text(), "SELECT a FROM t WHERE b = 5");
  EXPECT_EQ(dml->params(), std::vector<Value>{Value(int64_t{5})});
  EXPECT_EQ(cache.stats().misses, 1);
  // Cache on, DDL: parsed, not remembered.
  auto ddl = CompileSql(&cache, "CREATE TABLE t (a INT)");
  ASSERT_TRUE(ddl->ok());
  EXPECT_TRUE(ddl->params().empty());
  EXPECT_TRUE(std::holds_alternative<CreateTableStatement>(ddl->statement()));
  EXPECT_EQ(cache.stats().bypasses, 1);
  EXPECT_EQ(cache.size(), 1u);
  // Cache off: the same template and values, parsed afresh; the cache is
  // idle.
  auto off = CompileSql(nullptr, "SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(off->ok());
  EXPECT_NE(&off->statement(), &dml->statement());
  EXPECT_EQ(Describe(off->statement()), Describe(dml->statement()));
  EXPECT_EQ(off->params(), dml->params());
  EXPECT_EQ(cache.stats().hits, 0);
  // A second text of the same shape: the same template, its own literals.
  auto same_shape = CompileSql(&cache, "SELECT a FROM t WHERE b = 6");
  ASSERT_TRUE(same_shape->ok());
  EXPECT_EQ(&same_shape->statement(), &dml->statement());
  EXPECT_EQ(same_shape->params(), std::vector<Value>{Value(int64_t{6})});
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(same_shape->text(), "SELECT a FROM t WHERE b = 6");
}

TEST(CompileSql, ParseErrorsAreParseSqlErrors) {
  StatementCache cache;
  Database database;
  // A SELECT that does not parse, a tokenizer error and a text that is no
  // statement: the cache-on error is the cache-off error. The failed
  // compile keeps its text and returns that error where it executes.
  for (const std::string sql :
       {"SELECT FROM t WHERE", "SELECT 'unterminated", "NOT SQL"}) {
    auto on = CompileSql(&cache, sql);
    auto off = CompileSql(nullptr, sql);
    ASSERT_FALSE(on->ok()) << sql;
    ASSERT_FALSE(off->ok()) << sql;
    EXPECT_EQ(on->status().ToString(), off->status().ToString()) << sql;
    EXPECT_EQ(on->text(), sql);
    auto executed = database.Execute(on);
    ASSERT_FALSE(executed.ok()) << sql;
    EXPECT_EQ(executed.status().ToString(), on->status().ToString()) << sql;
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
      "Age INT, score INT)",
      "CREATE INDEX idx_age ON people (Age)",
  };
  for (int i = 1; i <= 30; ++i) {
    statements.push_back(StrFormat(
        "INSERT INTO people VALUES (%d, 'p%d', %d, %d)", i, i, 20 + i % 9,
        i - 15));
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
      // A number's sign is part of the literal: one template for both.
      "SELECT id FROM people WHERE id > -3 AND score > -2 LIMIT 3",
      "SELECT id FROM people WHERE id > 3 AND score > 2 LIMIT 3",
      "SELECT COUNT(*) FROM people WHERE name = 'p3'",
      "SELECT COUNT(*) FROM people WHERE name = 'p3' LIMIT 0",
      // String edge cases: '' escape, empty string.
      "SELECT id FROM people WHERE name = 'it''s'",
      "SELECT id FROM people WHERE name = ''",
      // Writes through the cache, refused ones among them: a duplicate key
      // and a string in an integer column.
      "INSERT INTO people VALUES (31, 'p31', 99, 0)",
      "INSERT INTO people VALUES (32, 'p32', 98, 1)",
      "INSERT INTO people VALUES (30, 'again', 97, 2)",
      "INSERT INTO people VALUES (33, 'p33', -5, -1)",
      "INSERT INTO people VALUES (34, 'p34', 5, 'five')",
      "INSERT INTO people VALUES (35, 'p35', NULL, NULL)",
      "SELECT name FROM people WHERE Age >= 97",
      "SELECT id, Age, score FROM people WHERE Age <= 5",
      // Removed statements and forms are parse errors, alike with the cache
      // on or off.
      "UPDATE people SET Age = 99 WHERE id = 5",
      "DELETE FROM people WHERE id = 30",
      "SELECT MIN(Age) FROM people",
      "SELECT id FROM people WHERE Age BETWEEN 21 AND 24",
      "SELECT id FROM people WHERE score = 1.5",
      "SELECT id FROM people LIMIT 1.5",
      "CREATE TABLE more (a DOUBLE)",
      // Errors must be byte-identical: unknown table, bad syntax, bad lex,
      // and a bad LIMIT count (a template that parses, whose bound value
      // the executor rejects).
      "SELECT * FROM nope WHERE id = 1",
      "SELECT FROM WHERE",
      "SELECT 'unterminated",
      "SELECT id FROM people LIMIT -1",
      "SELECT id FROM people LIMIT 'two'",
      "SELECT id FROM people LIMIT 0 - 1",
      "SELECT * FROM people WHERE id = 7",
  };
  statements.insert(statements.end(), probes.begin(), probes.end());
  ExpectEquivalent(statements);
}

/// Every SQL text shape the workloads issue: the Cloudstone schema, its
/// pre-load and both operation mixes, and the heartbeat's table, insert and
/// poll.
StrVec WorkloadStatements() {
  StrVec sql = cloudstone::SchemaStatements();
  cloudstone::WorkloadState state;
  Status loaded = cloudstone::LoadInitialData(
      [&](const std::string& text) {
        sql.push_back(text);
        return Status::Ok();
      },
      /*scale=*/20, /*seed=*/1, &state);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  int64_t now = 1'000'000;
  for (const auto& mix : {cloudstone::WorkloadMix::FiftyFifty(),
                          cloudstone::WorkloadMix::EightyTwenty()}) {
    cloudstone::OperationGenerator gen(mix, cloudstone::OperationCosts{},
                                       &state, [&] { return now += 997; });
    Rng rng(7);
    for (int i = 0; i < 300; ++i) sql.push_back(gen.Next(rng).sql);
  }
  sql.push_back("CREATE TABLE heartbeat (hb_id BIGINT PRIMARY KEY, ts BIGINT)");
  for (int64_t id : {-1, 0, 1, 2, 41}) {
    sql.push_back(StrFormat(
        "INSERT INTO heartbeat (hb_id, ts) VALUES (%lld, NOW_MICROS())",
        static_cast<long long>(id)));
    sql.push_back(StrFormat("SELECT hb_id, ts FROM heartbeat WHERE hb_id > %lld",
                            static_cast<long long>(id)));
  }
  return sql;
}

// A workload text compiles to one form whether the cache is on or off: the
// same template and the same literal values, through the cache's miss and
// its hit path alike. The fingerprint scan, which binds a hit's values,
// collects exactly the values ParseSql binds.
TEST(CacheEquivalence, WorkloadShapesCompileAlikeOnAndOff) {
  StatementCache cache;
  for (const std::string& sql : WorkloadStatements()) {
    auto on = CompileSql(&cache, sql);
    auto off = CompileSql(nullptr, sql);
    ASSERT_TRUE(on->ok()) << sql << " -> " << on->status().ToString();
    ASSERT_TRUE(off->ok()) << sql << " -> " << off->status().ToString();
    EXPECT_EQ(Describe(on->statement()), Describe(off->statement())) << sql;
    EXPECT_EQ(on->params(), off->params()) << sql;
    std::vector<Value> scanned;
    ASSERT_TRUE(FingerprintSql(sql, &scanned).ok()) << sql;
    EXPECT_EQ(scanned, off->params()) << sql;
  }
  // Each shape parsed once; most texts were hits.
  EXPECT_GT(cache.stats().hits, 10 * cache.stats().misses);
  // DDL is never remembered: the schema's twice (listed, then issued by the
  // loader) and the heartbeat table's.
  const auto ddl = static_cast<int64_t>(cloudstone::SchemaStatements().size());
  EXPECT_EQ(cache.stats().bypasses, 2 * ddl + 1);
}

// ---------------------------------------------------------------------------
// Replication: the master's compiled statements run on every slave

TEST(CachedReplication, MasterCacheServesEveryReplica) {
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
  // One INSERT shape, parsed once for the whole tier: the master's cache
  // served the repeats, and each slave's apply loop ran the master's
  // template from the shipped event without a lookup of its own.
  EXPECT_GT(cluster.master()->database().statement_cache().stats().hits, 20);
  for (int i = 0; i < 2; ++i) {
    const StatementCacheStats& stats =
        cluster.slave(i)->database().statement_cache().stats();
    EXPECT_EQ(stats.misses, 0);
    EXPECT_EQ(stats.hits, 0);
  }
}

}  // namespace
}  // namespace clouddb::db
