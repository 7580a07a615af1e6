#include "db/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

Schema UserSchema() {
  auto schema = Schema::Create({
      {"id", ValueType::kInt64, false, true},
      {"name", ValueType::kString, true, false},
      {"age", ValueType::kInt64, false, false},
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Row MakeUser(int64_t id, const std::string& name, int64_t age) {
  return {Value(id), Value(name), Value(age)};
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_("users", UserSchema()) {}
  Table table_;
};

TEST_F(TableTest, InsertAndGet) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  const Row* row = table_.Get(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].AsString(), "ann");
  EXPECT_EQ(table_.num_rows(), 1u);
}

TEST_F(TableTest, InsertRejectsDuplicatePk) {
  ASSERT_TRUE(table_.Insert(MakeUser(1, "ann", 30)).ok());
  auto dup = table_.Insert(MakeUser(1, "bob", 25));
  EXPECT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(table_.num_rows(), 1u);
}

TEST_F(TableTest, InsertRejectsBadRow) {
  EXPECT_FALSE(table_.Insert({Value(int64_t{1})}).ok());          // arity
  EXPECT_FALSE(
      table_.Insert({Value(int64_t{1}), Value::Null(), Value::Null()}).ok());
}

TEST_F(TableTest, SecondaryIndexScan) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i * 10)).ok());
  }
  std::vector<int64_t> ages;
  Value lo(int64_t{30});
  Value hi(int64_t{50});
  ASSERT_TRUE(table_
                  .ScanIndex(2, &lo, true, &hi, true,
                             [&](RowId id) {
                               ages.push_back((*table_.Get(id))[2].AsInt64());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(ages, (std::vector<int64_t>{30, 40, 50}));
}

TEST_F(TableTest, SecondaryIndexHandlesDuplicateValues) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", 99)).ok());
  }
  int count = 0;
  Value target(int64_t{99});
  ASSERT_TRUE(table_
                  .ScanIndex(2, &target, true, &target, true,
                             [&](RowId) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST_F(TableTest, CreateIndexBackfillsExistingRows) {
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  int count = 0;
  ASSERT_TRUE(table_
                  .ScanIndex(2, nullptr, true, nullptr, true,
                             [&](RowId) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 3);
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, CreateIndexRejectsDuplicatesAndUnknownColumns) {
  ASSERT_TRUE(table_.CreateIndex("idx", "age").ok());
  EXPECT_TRUE(table_.CreateIndex("idx", "name").IsAlreadyExists());
  EXPECT_FALSE(table_.CreateIndex("idx2", "missing").ok());
  EXPECT_TRUE(table_.HasIndexNamed("IDX"));  // case-insensitive
  EXPECT_TRUE(table_.HasIndexOn(2));
  EXPECT_FALSE(table_.HasIndexOn(1));
  EXPECT_TRUE(table_.HasIndexOn(0));  // the PK
}

TEST_F(TableTest, ScanPrimaryRange) {
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  std::vector<int64_t> ids;
  Value lo(int64_t{4});
  ASSERT_TRUE(table_
                  .ScanPrimary(&lo, false, nullptr, true,
                               [&](RowId id) {
                                 ids.push_back((*table_.Get(id))[0].AsInt64());
                                 return ids.size() < 3;
                               })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{5, 6, 7}));
}

TEST_F(TableTest, ForEachRowVisitsEveryRow) {
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  int visited = 0;
  table_.ForEachRow([&](RowId, const Row&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 4);
}

TEST_F(TableTest, ContentsEqualIgnoresRowIds) {
  Table other("users", UserSchema());
  ASSERT_TRUE(table_.Insert(MakeUser(1, "a", 1)).ok());
  ASSERT_TRUE(table_.Insert(MakeUser(2, "b", 2)).ok());
  // Insert in the opposite order: different RowIds, same contents.
  ASSERT_TRUE(other.Insert(MakeUser(2, "b", 2)).ok());
  ASSERT_TRUE(other.Insert(MakeUser(1, "a", 1)).ok());
  EXPECT_TRUE(Table::ContentsEqual(table_, other));
  ASSERT_TRUE(other.Insert(MakeUser(3, "c", 3)).ok());
  EXPECT_FALSE(Table::ContentsEqual(table_, other));
}

// A clone shares its source's rows: every slot holds the source's row
// object. The slots, the RowId counter and the indexes are each table's own,
// so an insert into the copy leaves the source as it was, and the rows
// outlive the table that first stored them.
TEST_F(TableTest, CloneSharesEveryRow) {
  auto source = std::make_unique<Table>("users", UserSchema());
  ASSERT_TRUE(source->CreateIndex("idx_age", "age").ok());
  const RowId n = 40;
  std::vector<Row> model;
  for (RowId i = 1; i <= n; ++i) {
    model.push_back(MakeUser(i, "u" + std::to_string(i), i % 7));
    ASSERT_TRUE(source->Insert(model.back()).ok());
  }
  std::unique_ptr<Table> copy = source->Clone();
  for (RowId id = 1; id <= n; ++id) {
    ASSERT_NE(copy->Get(id), nullptr) << "row id " << id;
    EXPECT_EQ(copy->Get(id), source->Get(id)) << "row id " << id;
  }
  ASSERT_TRUE(copy->Insert(MakeUser(n + 1, "fresh", 3)).ok());
  EXPECT_EQ(source->num_rows(), static_cast<size_t>(n));
  EXPECT_EQ(source->Get(n + 1), nullptr);
  std::string err;
  EXPECT_TRUE(source->ValidateIndexes(&err)) << err;

  source.reset();
  model.push_back(MakeUser(n + 1, "fresh", 3));
  ASSERT_EQ(copy->num_rows(), model.size());
  for (RowId id = 1; id <= n + 1; ++id) {
    ASSERT_NE(copy->Get(id), nullptr) << "row id " << id;
    EXPECT_EQ(*copy->Get(id), model[static_cast<size_t>(id - 1)])
        << "row id " << id;
  }
  EXPECT_TRUE(copy->ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, InsertRefusesANullRow) {
  Result<RowId> id = table_.Insert(std::shared_ptr<const Row>());
  EXPECT_TRUE(id.status().IsInvalidArgument()) << id.status().ToString();
  EXPECT_EQ(table_.num_rows(), 0u);
}

TEST_F(TableTest, IndexConsistencyUnderRandomChurn) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  Rng rng(7);
  size_t accepted = 0;
  size_t rejected = 0;
  // Random primary keys from a range the inserts half fill, so some
  // collide and are rejected without touching any index.
  for (int step = 0; step < 2000; ++step) {
    auto id = table_.Insert(
        MakeUser(rng.UniformInt(0, 3000), "u", rng.UniformInt(0, 100)));
    ++(id.ok() ? accepted : rejected);
  }
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
  EXPECT_EQ(table_.num_rows(), accepted);
  EXPECT_GT(rejected, 0u);
}

TEST(TableNoPkTest, TablesWithoutPrimaryKeyWork) {
  auto schema = Schema::Create({{"a", ValueType::kInt64, false, false}});
  ASSERT_TRUE(schema.ok());
  Table table("t", std::move(schema).value());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());  // duplicates fine
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(table.ScanPrimary(nullptr, true, nullptr, true, [](RowId) {
    return true;
  }).IsFailedPrecondition());
}

/// The oracle for ContentsEqual: the plain sort-based comparison — catalog,
/// row count, then both tables' rows sorted and compared pairwise — with no
/// lockstep walk in front of it.
bool SortedContentsEqual(const Table& a, const Table& b) {
  if (a.schema() != b.schema()) return false;
  auto index_set = [](const Table& t) {
    std::vector<std::pair<std::string, std::string>> indexes =
        t.SecondaryIndexes();
    std::sort(indexes.begin(), indexes.end());
    return indexes;
  };
  if (index_set(a) != index_set(b)) return false;
  if (a.num_rows() != b.num_rows()) return false;
  auto sorted_rows = [](const Table& t) {
    std::vector<const Row*> rows;
    t.ForEachRow([&](RowId, const Row& row) {
      rows.push_back(&row);
      return true;
    });
    std::sort(rows.begin(), rows.end(), [](const Row* x, const Row* y) {
      for (size_t i = 0; i < std::min(x->size(), y->size()); ++i) {
        int c = Value::Compare((*x)[i], (*y)[i]);
        if (c != 0) return c < 0;
      }
      return x->size() < y->size();
    });
    return rows;
  };
  std::vector<const Row*> ra = sorted_rows(a);
  std::vector<const Row*> rb = sorted_rows(b);
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i]->size() != rb[i]->size()) return false;
    for (size_t j = 0; j < ra[i]->size(); ++j) {
      if ((*ra[i])[j] != (*rb[i])[j]) return false;
    }
  }
  return true;
}

/// How the second table of a ContentsEqual pair is built.
enum class PairKind {
  kSameStream,     // the first table's rows in the same order: equal
  kPermuted,       // the first table's rows inserted in shuffled order
  kChangedFirst,   // same rows, with the first row's value changed
  kChangedMiddle,  // ... a middle row's
  kChangedLast,    // ... the last row's
  kNullVsValue,    // ... one row's nullable value swapped with NULL
  kSwappedRow,     // ... one row left out and another appended: counts match
  // A clone of the first table, which shares its rows, and then fresh rows
  // appended to both:
  kCloneSameAppends,      // the same rows in the same order: equal
  kCloneChangedAppend,    // ... one of them changed on the clone: unequal
  kCloneShuffledAppends,  // ... in shuffled order on the clone: equal
};
constexpr int kPairKinds = 10;

std::unique_ptr<Table> EmptyPropertyTable(bool primary_key) {
  auto schema = Schema::Create({
      {"id", ValueType::kInt64, true, primary_key},
      {"name", ValueType::kString, false, false},
      {"score", ValueType::kInt64, false, false},
  });
  EXPECT_TRUE(schema.ok());
  auto table = std::make_unique<Table>("t", std::move(schema).value());
  EXPECT_TRUE(table->CreateIndex("idx_score", "score").ok());
  return table;
}

/// Small value ranges, so rows without a primary key repeat.
Row RandomPropertyRow(Rng& rng, int64_t id) {
  return {Value(id),
          rng.Bernoulli(0.25) ? Value::Null()
                              : Value("n" + std::to_string(rng.UniformInt(0, 3))),
          rng.Bernoulli(0.25) ? Value::Null() : Value(rng.UniformInt(0, 5))};
}

/// The table's rows in RowId order.
std::vector<Row> RowsOf(const Table& table) {
  std::vector<Row> rows;
  table.ForEachRow([&](RowId, const Row& row) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

/// Sets `column` of `row` to a value it does not hold (NULL for a value, a
/// value for NULL when `null_swap`).
void PlantChange(Rng& rng, Row* row, size_t column, bool null_swap) {
  Value& v = (*row)[column];
  if (null_swap) {
    v = v.is_null() ? (column == 1 ? Value("n0") : Value(int64_t{0}))
                   : Value::Null();
  } else if (column == 1) {
    v = Value(v.is_null() ? "changed" : v.AsString() + "'");
  } else {
    v = Value(v.is_null() ? rng.UniformInt(0, 5) : v.AsInt64() + 1);
  }
}

/// Shuffles `rows` in place.
void Shuffle(Rng& rng, std::vector<Row>* rows) {
  for (size_t i = rows->size(); i > 1; --i) {
    size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*rows)[i - 1], (*rows)[j]);
  }
}

/// The clone kinds' `b`: a clone of `a`, and then fresh rows appended to
/// both as `kind` says. The appended rows hold keys no other row holds, so
/// either side accepts every one in any order. On kCloneSameAppends about
/// half of `b`'s appended slots hold `a`'s row object, as a row-based
/// stream's inserts do, and the rest an equal row of their own.
void AppendAfterClone(PairKind kind, Rng& rng, Table* a,
                      std::unique_ptr<Table>* b) {
  *b = a->Clone();
  int64_t count = rng.UniformInt(1, 20);
  std::vector<Row> appended;
  for (int64_t i = 0; i < count; ++i) {
    appended.push_back(RandomPropertyRow(rng, 100 + i));
  }
  std::vector<Row> to_b = appended;
  if (kind == PairKind::kCloneChangedAppend) {
    size_t pos = static_cast<size_t>(rng.UniformInt(0, count - 1));
    size_t column = static_cast<size_t>(rng.UniformInt(1, 2));
    PlantChange(rng, &to_b[pos], column, /*null_swap=*/rng.Bernoulli(0.5));
  } else if (kind == PairKind::kCloneShuffledAppends) {
    Shuffle(rng, &to_b);
  }
  for (size_t i = 0; i < appended.size(); ++i) {
    auto row = std::make_shared<const Row>(appended[i]);
    ASSERT_TRUE(a->Insert(row).ok());
    bool share = kind == PairKind::kCloneSameAppends && rng.Bernoulli(0.5);
    ASSERT_TRUE((share ? (*b)->Insert(row) : (*b)->Insert(to_b[i])).ok());
  }
}

/// Builds a table pair of `kind` from `seed`: `a` takes a random insert
/// stream (duplicate keys rejected), `b` takes `a`'s rows as `kind` says.
void BuildPair(PairKind kind, bool primary_key, uint64_t seed, Table* a,
               std::unique_ptr<Table>* b) {
  Rng rng(seed);
  int64_t inserts = rng.UniformInt(0, 80);
  int64_t id_range = primary_key ? 60 : 4;
  for (int64_t i = 0; i < inserts; ++i) {
    Row row = RandomPropertyRow(rng, rng.UniformInt(0, id_range));
    (void)a->Insert(std::move(row));
  }
  if (kind >= PairKind::kCloneSameAppends) {  // the clone kinds come last
    AppendAfterClone(kind, rng, a, b);
    return;
  }
  std::vector<Row> rows = RowsOf(*a);
  size_t n = rows.size();
  size_t column = static_cast<size_t>(rng.UniformInt(1, 2));
  auto random_pos = [&] {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  if (n > 0) {
    switch (kind) {
      case PairKind::kSameStream:
        break;
      case PairKind::kPermuted:
        Shuffle(rng, &rows);
        break;
      case PairKind::kChangedFirst:
        PlantChange(rng, &rows[0], column, /*null_swap=*/false);
        break;
      case PairKind::kChangedMiddle:
        PlantChange(rng, &rows[n / 2], column, /*null_swap=*/false);
        break;
      case PairKind::kChangedLast:
        PlantChange(rng, &rows[n - 1], column, /*null_swap=*/false);
        break;
      case PairKind::kNullVsValue:
        PlantChange(rng, &rows[random_pos()], column, /*null_swap=*/true);
        break;
      case PairKind::kSwappedRow: {
        auto gone = rows.begin() + static_cast<std::ptrdiff_t>(random_pos());
        Row left_out = std::move(*gone);
        rows.erase(gone);
        // Now and then the appended row is the one left out, under a new
        // RowId: equal contents that the walk alone cannot prove.
        rows.push_back(
            rng.Bernoulli(0.25)
                ? std::move(left_out)
                : RandomPropertyRow(rng, 1000 + rng.UniformInt(0, 9)));
        break;
      }
      default:
        break;
    }
  }
  for (Row& row : rows) ASSERT_TRUE((*b)->Insert(std::move(row)).ok());
}

// ContentsEqual's lockstep walk plus fallback must return exactly what the
// sort-based comparison returns, on pairs built to take each path: the same
// rows in the same order (walk), the same rows in a shuffled order
// (fallback), and one planted difference at the first, a middle or the last
// row, NULL against a value, or a row swapped for another. The clone kinds
// hold the walk's shared-row shortcut to the same verdicts: a prefix of
// shared rows followed by equal, changed or shuffled appended rows.
TEST(TableContentsEqualTest, AgreesWithTheSortedComparison) {
  int equal = 0;
  int unequal = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (int k = 0; k < kPairKinds; ++k) {
      bool primary_key = seed % 2 == 0;
      auto kind = static_cast<PairKind>(k);
      SCOPED_TRACE(StrFormat("seed %d kind %d pk %d", static_cast<int>(seed),
                             k, primary_key ? 1 : 0));
      std::unique_ptr<Table> a = EmptyPropertyTable(primary_key);
      std::unique_ptr<Table> b = EmptyPropertyTable(primary_key);
      BuildPair(kind, primary_key, seed * 7919 + static_cast<uint64_t>(k),
                a.get(), &b);
      if (HasFatalFailure()) return;
      bool expected = SortedContentsEqual(*a, *b);
      EXPECT_EQ(Table::ContentsEqual(*a, *b), expected);
      EXPECT_EQ(Table::ContentsEqual(*b, *a), expected);
      if (kind == PairKind::kSameStream || kind == PairKind::kPermuted ||
          kind == PairKind::kCloneSameAppends ||
          kind == PairKind::kCloneShuffledAppends) {
        EXPECT_TRUE(expected);
      }
      if (kind == PairKind::kCloneChangedAppend) {
        EXPECT_FALSE(expected);
      }
      ++(expected ? equal : unequal);
    }
  }
  // Both verdicts occur often enough for the agreement to mean something.
  EXPECT_GT(equal, 100);
  EXPECT_GT(unequal, 150);
}

/// Checks `table` against the rows it was given, in order: Get for every id
/// from -1 to one past the newest (ids below 1 and unassigned ids give
/// nullptr), ForEachRow's (RowId, row) sequence, num_rows and the indexes.
void ExpectMatchesModel(const Table& table, const std::vector<Row>& model) {
  const auto newest = static_cast<RowId>(model.size());
  for (RowId id = -1; id <= newest + 1; ++id) {
    const Row* row = table.Get(id);
    if (id < 1 || id > newest) {
      ASSERT_EQ(row, nullptr) << "row id " << id;
    } else {
      ASSERT_NE(row, nullptr) << "row id " << id;
      ASSERT_EQ(*row, model[static_cast<size_t>(id - 1)]) << "row id " << id;
    }
  }
  std::vector<std::pair<RowId, Row>> visited;
  table.ForEachRow([&](RowId id, const Row& row) {
    visited.emplace_back(id, row);
    return true;
  });
  std::vector<std::pair<RowId, Row>> expected;
  for (size_t i = 0; i < model.size(); ++i) {
    expected.emplace_back(static_cast<RowId>(i) + 1, model[i]);
  }
  ASSERT_EQ(visited, expected);
  ASSERT_EQ(table.num_rows(), model.size());
  std::string err;
  ASSERT_TRUE(table.ValidateIndexes(&err)) << err;
}

// The row store against a model of it, the list of rows it accepted, under
// seeded inserts (some rejected as duplicate keys or NULL in the NOT NULL
// column, which must not use up a RowId) and clones (the inserts continue on
// the copy). After every step the table matches the model, and a fresh
// clone holds the same rows and assigns the next RowId its source would.
TEST(TableRowStoreTest, MatchesAMapModelUnderChurn) {
  int rejected = 0;
  int clones = 0;
  for (bool primary_key : {true, false}) {
    SCOPED_TRACE(primary_key ? "primary key" : "no primary key");
    std::unique_ptr<Table> table = EmptyPropertyTable(primary_key);
    std::vector<Row> model;
    Rng rng(primary_key ? 11 : 12);
    auto holds_key = [&](const Value& key) {
      return std::any_of(model.begin(), model.end(),
                         [&](const Row& row) { return row[0] == key; });
    };
    for (int step = 0; step < 800; ++step) {
      SCOPED_TRACE(StrFormat("step %d", step));
      if (rng.NextDouble() < 0.985) {
        Row row = RandomPropertyRow(rng, rng.UniformInt(0, 1200));
        if (rng.Bernoulli(0.05)) row[0] = Value::Null();
        bool refused = row[0].is_null() || (primary_key && holds_key(row[0]));
        Result<RowId> id = table->Insert(row);
        ASSERT_EQ(id.ok(), !refused);
        if (id.ok()) {
          model.push_back(std::move(row));
          ASSERT_EQ(*id, static_cast<RowId>(model.size()));
        } else {
          ++rejected;
        }
      } else {
        table = table->Clone();
        ++clones;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(*table, model));
      std::unique_ptr<Table> copy = table->Clone();
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(*copy, model));
      Result<RowId> fresh = copy->Insert(RandomPropertyRow(rng, 2000 + step));
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(*fresh, static_cast<RowId>(model.size()) + 1);
    }
  }
  // Every kind of step ran.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(clones, 0);
}

}  // namespace
}  // namespace clouddb::db
