// Property test: the planner's access-path choices (PK lookups, secondary
// index scans, range scans, limit pushdown, order-skipping) must never
// change query *results*. Two databases hold identical data; one has every
// secondary index, the other none. Random queries must return identical
// row sets from both: the table scan, which checks every comparison on
// every row, is the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

/// Canonical rendering of a result set for comparison. Order-insensitive
/// unless `ordered` (ORDER BY queries compare the sort column sequence).
std::vector<std::string> Canonical(const ExecResult& result, bool ordered) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) rows.push_back(RowToString(row));
  if (!ordered) std::sort(rows.begin(), rows.end());
  return rows;
}

class PlannerEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    for (Database* d : {&indexed_, &heap_}) {
      ASSERT_TRUE(d->Execute("CREATE TABLE items (id BIGINT PRIMARY KEY, "
                             "cat BIGINT, price BIGINT, name TEXT)")
                      .ok());
    }
    ASSERT_TRUE(indexed_.Execute("CREATE INDEX idx_cat ON items (cat)").ok());
    ASSERT_TRUE(
        indexed_.Execute("CREATE INDEX idx_price ON items (price)").ok());
    // Both databases keep the PK (it is part of the schema); only the
    // secondary indexes differ, so cat/price predicates take different
    // access paths in the two databases.
    Rng rng(GetParam());
    for (int i = 0; i < 400; ++i) {
      std::string sql = ItemInsert(rng, i);
      ASSERT_TRUE(indexed_.Execute(sql).ok());
      ASSERT_TRUE(heap_.Execute(sql).ok());
    }
  }

  /// The INSERT of item `i`. Prices are unique (i*37 mod 1000 is injective
  /// for i < 1000), so ORDER BY price has no ties among the rows a price
  /// comparison matches, and LIMIT cutoffs are deterministic across plans.
  /// About one item in eight has a NULL price, which sorts first in the
  /// price index and matches no comparison. cat is deliberately
  /// low-cardinality.
  static std::string ItemInsert(Rng& rng, int i) {
    long long cat = rng.UniformInt(0, 20);
    std::string price =
        rng.Bernoulli(0.125) ? "NULL" : std::to_string((i * 37) % 1000);
    long long name = rng.UniformInt(0, 50);
    return StrFormat("INSERT INTO items VALUES (%d, %lld, %s, 'item_%lld')",
                     i, cat, price.c_str(), name);
  }

  void ExpectSameResults(const std::string& sql, bool ordered) {
    auto a = indexed_.Execute(sql);
    auto b = heap_.Execute(sql);
    ASSERT_EQ(a.ok(), b.ok()) << sql;
    if (!a.ok()) return;
    EXPECT_EQ(Canonical(*a, ordered), Canonical(*b, ordered)) << sql;
  }

  Database indexed_;
  Database heap_;
};

TEST_P(PlannerEquivalenceTest, RandomRangeAndEqualityQueries) {
  Rng rng(GetParam() * 101 + 7);
  for (int trial = 0; trial < 400; ++trial) {
    int64_t a = rng.UniformInt(0, 999);
    int64_t b = rng.UniformInt(0, 999);
    if (a > b) std::swap(a, b);
    std::string sql;
    switch (rng.UniformInt(0, 8)) {
      case 0:
        sql = StrFormat("SELECT * FROM items WHERE cat = %lld",
                        static_cast<long long>(a % 21));
        break;
      case 1:
        sql = StrFormat(
            "SELECT id, price FROM items WHERE price >= %lld AND price <= "
            "%lld",
            static_cast<long long>(a), static_cast<long long>(b));
        break;
      case 2:
        sql = StrFormat(
            "SELECT * FROM items WHERE price >= %lld AND price <= %lld "
            "ORDER BY price LIMIT %lld",
            static_cast<long long>(a), static_cast<long long>(b),
            static_cast<long long>(rng.UniformInt(0, 20)));
        break;
      case 3:
        sql = StrFormat(
            "SELECT * FROM items WHERE cat = %lld AND price > %lld",
            static_cast<long long>(a % 21), static_cast<long long>(b));
        break;
      case 4:
        sql = StrFormat(
            "SELECT * FROM items WHERE price > %lld ORDER BY price LIMIT 5",
            static_cast<long long>(a));
        break;
      case 5:
        sql = StrFormat(
            "SELECT COUNT(*) FROM items WHERE cat = %lld AND price <= %lld",
            static_cast<long long>(a % 21), static_cast<long long>(b));
        break;
      case 6:
        // An upper bound alone: the index range starts at the NULL keys.
        sql = rng.Bernoulli(0.5)
                  ? StrFormat("SELECT * FROM items WHERE price < %lld",
                              static_cast<long long>(b))
                  : StrFormat(
                        "SELECT * FROM items WHERE price < %lld ORDER BY "
                        "price LIMIT %lld",
                        static_cast<long long>(b),
                        static_cast<long long>(rng.UniformInt(0, 20)));
        break;
      case 7:
        // Two bounds at one value on each side: the exclusive one holds.
        sql = StrFormat(
            "SELECT id FROM items WHERE price >= %lld AND price > %lld AND "
            "price <= %lld AND price < %lld",
            static_cast<long long>(a), static_cast<long long>(a),
            static_cast<long long>(b), static_cast<long long>(b));
        break;
      default:
        sql = StrFormat(
            "SELECT * FROM items WHERE id >= %lld AND id < %lld "
            "ORDER BY id LIMIT 7",
            static_cast<long long>(a * 4), static_cast<long long>(b * 4));
        break;
    }
    bool ordered = sql.find("ORDER BY") != std::string::npos;
    ExpectSameResults(sql, ordered);
    if (HasFailure()) return;
  }
}

TEST_P(PlannerEquivalenceTest, EquivalenceSurvivesMutations) {
  Rng rng(GetParam() * 31 + 5);
  int next_id = 400;
  for (int round = 0; round < 30; ++round) {
    // Apply the same random inserts to both databases: a batch of new
    // items, now and then one that reuses a taken id and is refused.
    int64_t batch = rng.UniformInt(1, 9);
    for (int64_t k = 0; k < batch; ++k) {
      bool reuse = rng.Bernoulli(0.1);
      std::string mutation =
          ItemInsert(rng, reuse ? static_cast<int>(rng.UniformInt(0, 399))
                                : next_id++);
      auto ra = indexed_.Execute(mutation);
      auto rb = heap_.Execute(mutation);
      ASSERT_EQ(ra.ok(), !reuse) << mutation;
      ASSERT_EQ(rb.ok(), !reuse) << mutation;
    }
    ExpectSameResults("SELECT * FROM items", false);
    ExpectSameResults(
        StrFormat("SELECT * FROM items WHERE price >= 10 AND price <= %lld "
                  "ORDER BY price LIMIT 9",
                  static_cast<long long>(rng.UniformInt(200, 900))),
        true);
    if (HasFailure()) return;
  }
  std::string err;
  EXPECT_TRUE(indexed_.ValidateAllIndexes(&err)) << err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace clouddb::db
