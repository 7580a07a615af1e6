// End-to-end property tests: a randomized auto-commit workload (inserts,
// reads, and statements that fail) runs against a full replicated
// deployment; afterwards every replica must converge to the
// master and all index structures must validate. Also: bitwise-deterministic
// replay and a parser robustness fuzz.

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "db/sql_parser.h"
#include "db/value.h"
#include "repl/replication_cluster.h"
#include "common/time_types.h"
#include "sim/simulation.h"

namespace clouddb::repl {
namespace {

/// Generates a random statement against a small ledger schema. Some
/// statements intentionally fail (duplicate keys, NULL in a NOT NULL column,
/// text that is not a statement) — failures must not replicate and must not
/// break anything.
class StatementFuzzer {
 public:
  explicit StatementFuzzer(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    double pick = rng_.NextDouble();
    // Keys from a range the inserts fill to about a third, so some collide.
    long long key = static_cast<long long>(rng_.UniformInt(0, 2000));
    if (pick < 0.55) {
      return StrFormat(
          "INSERT INTO ledger (id, owner, amount) VALUES (%lld, 'u%lld', %lld)",
          key, static_cast<long long>(rng_.UniformInt(1, 10)),
          static_cast<long long>(rng_.UniformInt(-50, 50)));
    }
    if (pick < 0.65) {
      // Schema order, amount NULL.
      return StrFormat("INSERT INTO ledger VALUES (%lld, 'u%lld', NULL)", key,
                       static_cast<long long>(rng_.UniformInt(1, 10)));
    }
    if (pick < 0.72) {
      return StrFormat("INSERT INTO ledger (id, amount) VALUES (%lld, 1)",
                       key);  // owner is NOT NULL
    }
    if (pick < 0.75) {
      // Tables are append-only: these fail to parse on the master.
      return rng_.Bernoulli(0.5)
                 ? StrFormat("UPDATE ledger SET amount = 0 WHERE id = %lld",
                             key)
                 : StrFormat("DELETE FROM ledger WHERE id = %lld", key);
    }
    if (pick < 0.90) {
      return StrFormat("SELECT COUNT(*) FROM ledger WHERE amount >= %lld",
                       static_cast<long long>(rng_.UniformInt(-50, 50)));
    }
    return StrFormat("SELECT id, amount FROM ledger "
                     "WHERE id >= %lld AND id <= %lld",
                     static_cast<long long>(rng_.UniformInt(0, 1000)),
                     static_cast<long long>(rng_.UniformInt(1000, 2000)));
  }

 private:
  Rng rng_;
};

struct RunDigest {
  int64_t binlog_events = 0;
  int64_t ok_statements = 0;
  int64_t failed_statements = 0;
  int64_t final_sum = 0;
  int64_t final_count = 0;
  bool converged = false;
  bool indexes_valid = true;
};

RunDigest RunRandomWorkload(uint64_t seed, int num_slaves, int statements) {
  sim::Simulation sim;
  cloud::CloudOptions cloud_options;
  cloud::CloudProvider provider(&sim, cloud_options, seed);
  ClusterConfig config;
  config.num_slaves = num_slaves;
  ReplicationCluster cluster(&provider, config);
  EXPECT_TRUE(cluster.master()
                  ->ExecuteDirect(
                      "CREATE TABLE ledger (id BIGINT PRIMARY KEY, "
                      "owner TEXT NOT NULL, amount BIGINT)")
                  .ok());
  EXPECT_TRUE(cluster.master()
                  ->ExecuteDirect("CREATE INDEX idx_owner ON ledger (owner)")
                  .ok());

  StatementFuzzer fuzzer(seed * 31 + 7);
  RunDigest digest;
  for (int i = 0; i < statements; ++i) {
    auto result = cluster.master()->database().Execute(fuzzer.Next());
    if (result.ok()) {
      ++digest.ok_statements;
    } else {
      ++digest.failed_statements;
    }
    // Let replication make progress between statements now and then.
    if (i % 50 == 0) sim.RunUntil(sim.Now() + Seconds(1));
  }
  sim.Run();  // drain replication fully

  digest.binlog_events = cluster.master()->database().binlog().size();
  digest.converged = cluster.Converged() && cluster.FullyReplicated();
  std::string err;
  digest.indexes_valid =
      cluster.master()->database().ValidateAllIndexes(&err);
  for (int i = 0; i < num_slaves; ++i) {
    digest.indexes_valid = digest.indexes_valid &&
                           cluster.slave(i)->database().ValidateAllIndexes(&err);
  }
  EXPECT_TRUE(digest.indexes_valid) << err;
  auto amounts =
      cluster.master()->database().Execute("SELECT amount FROM ledger");
  EXPECT_TRUE(amounts.ok());
  if (amounts.ok()) {
    for (const db::Row& row : amounts->rows) {
      if (!row[0].is_null()) digest.final_sum += row[0].AsInt64();
    }
    digest.final_count = static_cast<int64_t>(amounts->rows.size());
  }
  return digest;
}

class ReplicationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationFuzzTest, RandomWorkloadConvergesOnAllReplicas) {
  RunDigest digest = RunRandomWorkload(GetParam(), 3, 1500);
  EXPECT_TRUE(digest.converged);
  EXPECT_TRUE(digest.indexes_valid);
  EXPECT_GT(digest.ok_statements, 0);
  EXPECT_GT(digest.failed_statements, 0);  // the fuzz does produce failures
  EXPECT_GT(digest.binlog_events, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ReplicationReplayTest, IdenticalSeedsProduceIdenticalDigests) {
  RunDigest a = RunRandomWorkload(77, 2, 800);
  RunDigest b = RunRandomWorkload(77, 2, 800);
  EXPECT_EQ(a.binlog_events, b.binlog_events);
  EXPECT_EQ(a.ok_statements, b.ok_statements);
  EXPECT_EQ(a.failed_statements, b.failed_statements);
  EXPECT_EQ(a.final_sum, b.final_sum);
  EXPECT_EQ(a.final_count, b.final_count);
}

TEST(ReplicationReplayTest, DifferentSeedsDiverge) {
  RunDigest a = RunRandomWorkload(101, 1, 500);
  RunDigest b = RunRandomWorkload(202, 1, 500);
  // Overwhelmingly likely to differ in at least one digest field.
  EXPECT_TRUE(a.binlog_events != b.binlog_events ||
              a.final_sum != b.final_sum || a.final_count != b.final_count);
}

// ---- Parser robustness fuzz ------------------------------------------------

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  const char* kFragments[] = {
      "SELECT", "INSERT", "UPDATE", "DELETE", "FROM",  "WHERE", "AND",
      "OR",     "NOT",    "IN",     "BETWEEN", "NULL", "IS",    "VALUES",
      "INTO",   "SET",    "ORDER",  "BY",     "LIMIT", "(",     ")",
      ",",      "*",      "=",      "<",      ">=",    "+",     "-",
      "'str'",  "42",     "3.14",   "tbl",    "col",   ";",     "COUNT",
      "MIN(",   "BEGIN",  "COMMIT", "PRIMARY", "KEY",  "TABLE", "CREATE",
  };
  Rng rng(555);
  int parsed_ok = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string sql;
    int len = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < len; ++i) {
      sql += kFragments[rng.UniformInt(
          0, static_cast<int64_t>(std::size(kFragments)) - 1)];
      sql += " ";
    }
    auto result = db::ParseSql(sql);  // must never crash or hang
    if (result.ok()) ++parsed_ok;
  }
  // Some soup accidentally forms valid SQL; most does not.
  EXPECT_LT(parsed_ok, 2000);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(777);
  for (int trial = 0; trial < 5000; ++trial) {
    std::string sql;
    int len = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < len; ++i) {
      sql += static_cast<char>(rng.UniformInt(1, 127));
    }
    (void)db::ParseSql(sql);
  }
  SUCCEED();
}

}  // namespace
}  // namespace clouddb::repl
