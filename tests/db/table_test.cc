#include "db/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
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

TEST_F(TableTest, FindByPrimaryKey) {
  ASSERT_TRUE(table_.Insert(MakeUser(5, "eve", 20)).ok());
  auto found = table_.FindByPrimaryKey(Value(int64_t{5}));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*table_.Get(*found))[1].AsString(), "eve");
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{6})).status().IsNotFound());
}

TEST_F(TableTest, DeleteRemovesRowAndIndexEntries) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(table_.Delete(*id).ok());
  EXPECT_EQ(table_.Get(*id), nullptr);
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).status().IsNotFound());
  EXPECT_TRUE(table_.Delete(*id).IsNotFound());
  // PK is reusable after delete.
  EXPECT_TRUE(table_.Insert(MakeUser(1, "ann2", 31)).ok());
}

TEST_F(TableTest, UpdateChangesContentAndIndexes) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(table_.Update(*id, MakeUser(2, "ann", 31)).ok());
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).status().IsNotFound());
  ASSERT_TRUE(table_.FindByPrimaryKey(Value(int64_t{2})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, UpdateRejectsPkCollision) {
  auto a = table_.Insert(MakeUser(1, "a", 1));
  ASSERT_TRUE(table_.Insert(MakeUser(2, "b", 2)).ok());
  auto st = table_.Update(*a, MakeUser(2, "a", 1));
  EXPECT_TRUE(st.IsAlreadyExists());
  // Original row unharmed.
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, UpdateSamePkAllowed) {
  auto a = table_.Insert(MakeUser(1, "a", 1));
  EXPECT_TRUE(table_.Update(*a, MakeUser(1, "renamed", 2)).ok());
  EXPECT_EQ((*table_.Get(*a))[1].AsString(), "renamed");
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

TEST_F(TableTest, TruncateClearsRowsKeepsIndexes) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  table_.Truncate();
  EXPECT_EQ(table_.num_rows(), 0u);
  ASSERT_TRUE(table_.Insert(MakeUser(1, "u", 1)).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, RestoreRowReinstatesExactRowId) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  Row saved = *table_.Get(*id);
  ASSERT_TRUE(table_.Delete(*id).ok());
  ASSERT_TRUE(table_.RestoreRow(*id, saved).ok());
  EXPECT_NE(table_.Get(*id), nullptr);
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, RestoreRowRejectsLiveIdAndDuplicatePk) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(table_.RestoreRow(*id, MakeUser(9, "x", 1)).IsAlreadyExists());
  // Delete then try restoring with a PK owned by another row.
  ASSERT_TRUE(table_.Insert(MakeUser(2, "bob", 25)).ok());
  Row saved = *table_.Get(*id);
  ASSERT_TRUE(table_.Delete(*id).ok());
  EXPECT_TRUE(table_.RestoreRow(*id, MakeUser(2, "x", 1)).IsAlreadyExists());
  EXPECT_TRUE(table_.RestoreRow(*id, saved).ok());
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

TEST_F(TableTest, IndexConsistencyUnderRandomChurn) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  Rng rng(7);
  std::vector<RowId> live;
  for (int step = 0; step < 2000; ++step) {
    double action = rng.NextDouble();
    if (action < 0.5 || live.empty()) {
      auto id = table_.Insert(MakeUser(rng.UniformInt(0, 1 << 30), "u",
                                       rng.UniformInt(0, 100)));
      if (id.ok()) live.push_back(*id);
    } else if (action < 0.75) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(table_.Delete(live[pick]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Row updated = *table_.Get(live[pick]);
      updated[2] = Value(rng.UniformInt(0, 100));
      ASSERT_TRUE(table_.Update(live[pick], updated).ok());
    }
  }
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
  EXPECT_EQ(table_.num_rows(), live.size());
}

TEST(TableNoPkTest, TablesWithoutPrimaryKeyWork) {
  auto schema = Schema::Create({{"a", ValueType::kInt64, false, false}});
  ASSERT_TRUE(schema.ok());
  Table table("t", std::move(schema).value());
  EXPECT_FALSE(table.HasPrimaryKey());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());  // duplicates fine
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(
      table.FindByPrimaryKey(Value(int64_t{1})).status().IsFailedPrecondition());
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
  kSameStream,     // the first table's op stream: equal, same RowId order
  kPermuted,       // the first table's rows inserted in shuffled order
  kChangedFirst,   // same stream, then the first row's value changed
  kChangedMiddle,  // ... a middle row's
  kChangedLast,    // ... the last row's
  kNullVsValue,    // ... one row's nullable value swapped with NULL
  kSwappedRow,     // ... one row deleted and one inserted: counts match
};
constexpr int kPairKinds = 7;

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

std::vector<RowId> RowIdsOf(const Table& table) {
  std::vector<RowId> ids;
  table.ForEachRow([&](RowId id, const Row&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

/// Replays one random insert/update/delete stream onto both tables, so they
/// end with the same rows under the same RowIds (gaps included).
void ApplySameStream(Rng& rng, bool primary_key, Table* a, Table* b) {
  int64_t ops = rng.UniformInt(0, 80);
  int64_t id_range = primary_key ? 60 : 4;
  for (int64_t op = 0; op < ops; ++op) {
    std::vector<RowId> live = RowIdsOf(*a);
    double action = rng.NextDouble();
    if (action < 0.6 || live.empty()) {
      Row row = RandomPropertyRow(rng, rng.UniformInt(0, id_range));
      Result<RowId> ia = a->Insert(row);
      Result<RowId> ib = b->Insert(row);
      ASSERT_EQ(ia.ok(), ib.ok());
      if (ia.ok()) {
        ASSERT_EQ(*ia, *ib);
      }
      continue;
    }
    RowId pick = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    if (action < 0.8) {
      ASSERT_TRUE(a->Delete(pick).ok());
      ASSERT_TRUE(b->Delete(pick).ok());
    } else {
      Row row = RandomPropertyRow(rng, (*a->Get(pick))[0].AsInt64());
      ASSERT_TRUE(a->Update(pick, row).ok());
      ASSERT_TRUE(b->Update(pick, row).ok());
    }
  }
}

/// Plants one difference in `b`'s row at `pos` (RowId order): `column` set
/// to a value the row does not hold (NULL for a value, a value for NULL
/// when `null_swap`).
void PlantChange(Rng& rng, Table* b, size_t pos, size_t column,
                 bool null_swap) {
  RowId id = RowIdsOf(*b)[pos];
  Row row = *b->Get(id);
  Value& v = row[column];
  if (null_swap) {
    v = v.is_null() ? (column == 1 ? Value("n0") : Value(int64_t{0}))
                   : Value::Null();
  } else if (column == 1) {
    v = Value(v.is_null() ? "changed" : v.AsString() + "'");
  } else {
    v = Value(v.is_null() ? rng.UniformInt(0, 5) : v.AsInt64() + 1);
  }
  ASSERT_TRUE(b->Update(id, row).ok());
}

/// Builds a table pair of `kind` from `seed`.
void BuildPair(PairKind kind, bool primary_key, uint64_t seed, Table* a,
               Table* b) {
  Rng rng(seed);
  if (kind == PairKind::kPermuted) {
    std::unique_ptr<Table> twin = EmptyPropertyTable(primary_key);
    ApplySameStream(rng, primary_key, a, twin.get());
    std::vector<Row> rows;
    a->ForEachRow([&](RowId, const Row& row) {
      rows.push_back(row);
      return true;
    });
    for (size_t i = rows.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(rows[i - 1], rows[j]);
    }
    for (Row& row : rows) ASSERT_TRUE(b->Insert(std::move(row)).ok());
    return;
  }
  ApplySameStream(rng, primary_key, a, b);
  size_t n = b->num_rows();
  if (kind == PairKind::kSameStream || n == 0) return;
  size_t column = static_cast<size_t>(rng.UniformInt(1, 2));
  switch (kind) {
    case PairKind::kChangedFirst:
      PlantChange(rng, b, 0, column, /*null_swap=*/false);
      break;
    case PairKind::kChangedMiddle:
      PlantChange(rng, b, n / 2, column, /*null_swap=*/false);
      break;
    case PairKind::kChangedLast:
      PlantChange(rng, b, n - 1, column, /*null_swap=*/false);
      break;
    case PairKind::kNullVsValue:
      PlantChange(rng, b,
                  static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(n) - 1)),
                  column, /*null_swap=*/true);
      break;
    case PairKind::kSwappedRow: {
      std::vector<RowId> ids = RowIdsOf(*b);
      RowId gone = ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
      Row deleted = *b->Get(gone);
      ASSERT_TRUE(b->Delete(gone).ok());
      // Now and then the "extra" row is the deleted one again, under a new
      // RowId: equal contents that the walk alone cannot prove.
      Row extra = rng.Bernoulli(0.25)
                      ? deleted
                      : RandomPropertyRow(rng, 1000 + rng.UniformInt(0, 9));
      ASSERT_TRUE(b->Insert(std::move(extra)).ok());
      break;
    }
    default:
      break;
  }
}

// ContentsEqual's lockstep walk plus fallback must return exactly what the
// sort-based comparison returns, on pairs built to take each path: the same
// op stream (walk), the same rows in a shuffled order (fallback), and one
// planted difference at the first, a middle or the last row, NULL against a
// value, or a row swapped for another.
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
                a.get(), b.get());
      if (HasFatalFailure()) return;
      bool expected = SortedContentsEqual(*a, *b);
      EXPECT_EQ(Table::ContentsEqual(*a, *b), expected);
      EXPECT_EQ(Table::ContentsEqual(*b, *a), expected);
      if (kind == PairKind::kSameStream || kind == PairKind::kPermuted) {
        EXPECT_TRUE(expected);
      }
      ++(expected ? equal : unequal);
    }
  }
  // Both verdicts occur often enough for the agreement to mean something.
  EXPECT_GT(equal, 100);
  EXPECT_GT(unequal, 150);
}

}  // namespace
}  // namespace clouddb::db
