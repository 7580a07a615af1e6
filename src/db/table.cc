#include "db/table.h"

#include <algorithm>
#include <memory>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (schema_.primary_key_index().has_value()) {
    primary_ = std::make_unique<BPlusTree<Value, RowId>>();
  }
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(name_, schema_);
  // Rows never change once stored, so the copy shares them: only the slots
  // are copied.
  copy->rows_ = rows_;
  if (primary_ != nullptr) {
    copy->primary_ = std::make_unique<BPlusTree<Value, RowId>>(*primary_);
  }
  for (const SecondaryIndex& idx : secondary_) {
    copy->secondary_.push_back(SecondaryIndex{
        idx.name, idx.column,
        std::make_unique<BPlusTree<SecondaryKey, RowId>>(*idx.tree)});
  }
  return copy;
}

Result<RowId> Table::Insert(std::shared_ptr<const Row> row) {
  if (row == nullptr) {
    return Status::InvalidArgument(
        StrFormat("null row for table '%s'", name_.c_str()));
  }
  CLOUDDB_RETURN_IF_ERROR(schema_.ValidateRow(*row));
  // The primary tree's Insert already detects duplicates, so there is no
  // separate lookup first — one traversal instead of two. Nothing changes
  // before that check, so a duplicate leaves the table as it was.
  RowId id = static_cast<RowId>(rows_.size()) + 1;
  if (primary_ != nullptr) {
    const Value& pk = (*row)[*schema_.primary_key_index()];
    if (!primary_->Insert(pk, id)) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table '%s'",
                    pk.ToSqlLiteral().c_str(), name_.c_str()));
    }
  }
  for (auto& idx : secondary_) {
    idx.tree->Insert(SecondaryKey{(*row)[idx.column], id}, id);
  }
  rows_.push_back(std::move(row));
  return id;
}

uint64_t Table::ContentsHash() const {
  // FNV-1a over each row's values, summed (mod 2^64) across rows so the
  // result is independent of RowId assignment and iteration order.
  uint64_t total = 0;
  ForEachRow([&](RowId, const Row& row) {
    uint64_t h = 1469598103934665603ull;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    total += h;
    return true;
  });
  return total ^ (static_cast<uint64_t>(rows_.size()) * 0x9e3779b97f4a7c15ull);
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  if (HasIndexNamed(index_name)) {
    return Status::AlreadyExists(
        StrFormat("index '%s' already exists", index_name.c_str()));
  }
  CLOUDDB_ASSIGN_OR_RETURN(size_t col, schema_.ColumnIndex(column));
  SecondaryIndex idx;
  idx.name = index_name;
  idx.column = col;
  idx.tree = std::make_unique<BPlusTree<SecondaryKey, RowId>>();
  ForEachRow([&](RowId id, const Row& row) {
    idx.tree->Insert(SecondaryKey{row[col], id}, id);
    return true;
  });
  secondary_.push_back(std::move(idx));
  return Status::Ok();
}

bool Table::HasIndexOn(size_t column_index) const {
  if (primary_ != nullptr && schema_.primary_key_index() == column_index) {
    return true;
  }
  return std::any_of(secondary_.begin(), secondary_.end(),
                     [&](const SecondaryIndex& i) {
                       return i.column == column_index;
                     });
}

bool Table::HasIndexNamed(const std::string& index_name) const {
  return std::any_of(secondary_.begin(), secondary_.end(),
                     [&](const SecondaryIndex& i) {
                       return EqualsIgnoreCase(i.name, index_name);
                     });
}

std::vector<std::pair<std::string, std::string>> Table::SecondaryIndexes()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(secondary_.size());
  for (const SecondaryIndex& idx : secondary_) {
    out.emplace_back(idx.name, schema_.columns()[idx.column].name);
  }
  return out;
}

Status Table::ScanIndex(size_t column_index, const Value* lo,
                        bool lo_inclusive, const Value* hi, bool hi_inclusive,
                        const std::function<bool(RowId)>& visit) const {
  // Prefer the primary index when the column is the PK.
  if (primary_ != nullptr && schema_.primary_key_index() == column_index) {
    return ScanPrimary(lo, lo_inclusive, hi, hi_inclusive, visit);
  }
  const SecondaryIndex* idx = nullptr;
  for (const auto& i : secondary_) {
    if (i.column == column_index) {
      idx = &i;
      break;
    }
  }
  if (idx == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("no index on column %zu of table '%s'", column_index,
                  name_.c_str()));
  }
  // Bounds on Value map to bounds on SecondaryKey via RowId extremes.
  SecondaryKey lo_key, hi_key;
  const SecondaryKey* lo_ptr = nullptr;
  const SecondaryKey* hi_ptr = nullptr;
  if (lo != nullptr) {
    lo_key = SecondaryKey{*lo, lo_inclusive ? INT64_MIN : INT64_MAX};
    lo_ptr = &lo_key;
  }
  if (hi != nullptr) {
    hi_key = SecondaryKey{*hi, hi_inclusive ? INT64_MAX : INT64_MIN};
    hi_ptr = &hi_key;
  }
  idx->tree->Scan(lo_ptr, /*lo_inclusive=*/true, hi_ptr, hi_inclusive,
                  [&](const SecondaryKey&, const RowId& id) {
                    return visit(id);
                  });
  return Status::Ok();
}

Status Table::ScanPrimary(const Value* lo, bool lo_inclusive, const Value* hi,
                          bool hi_inclusive,
                          const std::function<bool(RowId)>& visit) const {
  if (primary_ == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("table '%s' has no primary key", name_.c_str()));
  }
  primary_->Scan(lo, lo_inclusive, hi, hi_inclusive,
                 [&](const Value&, const RowId& id) { return visit(id); });
  return Status::Ok();
}

bool Table::ContentsEqual(const Table& a, const Table& b) {
  if (a.schema_ != b.schema_) return false;
  auto index_set = [](const Table& t) {
    std::vector<std::pair<std::string, std::string>> indexes =
        t.SecondaryIndexes();
    std::sort(indexes.begin(), indexes.end());
    return indexes;
  };
  if (index_set(a) != index_set(b)) return false;
  if (a.rows_.size() != b.rows_.size()) return false;
  // Replicas fed one statement stream hold their rows in the same RowId
  // order (a copy keeps the RowIds; slaves assign them in binlog order), so
  // compare the two stores slot by slot first: equal sequences are equal
  // multisets. A copy's rows, and the captured rows a row-based stream
  // inserts, are one object on both sides, which needs no value comparison.
  if (std::equal(a.rows_.begin(), a.rows_.end(), b.rows_.begin(),
                 [](const std::shared_ptr<const Row>& x,
                    const std::shared_ptr<const Row>& y) {
                   return x == y || *x == *y;
                 })) {
    return true;
  }
  // The orders differ: compare as sorted multisets of rows (RowIds excluded;
  // contents are what matter).
  std::vector<const Row*> ra, rb;
  ra.reserve(a.rows_.size());
  rb.reserve(b.rows_.size());
  a.ForEachRow([&](RowId, const Row& row) {
    ra.push_back(&row);
    return true;
  });
  b.ForEachRow([&](RowId, const Row& row) {
    rb.push_back(&row);
    return true;
  });
  auto row_less = [](const Row* x, const Row* y) {
    for (size_t i = 0; i < std::min(x->size(), y->size()); ++i) {
      int c = Value::Compare((*x)[i], (*y)[i]);
      if (c != 0) return c < 0;
    }
    return x->size() < y->size();
  };
  std::sort(ra.begin(), ra.end(), row_less);
  std::sort(rb.begin(), rb.end(), row_less);
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i]->size() != rb[i]->size()) return false;
    for (size_t j = 0; j < ra[i]->size(); ++j) {
      if ((*ra[i])[j] != (*rb[i])[j]) return false;
    }
  }
  return true;
}

bool Table::ValidateIndexes(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (primary_ != nullptr) {
    std::string tree_err;
    if (!primary_->Validate(&tree_err)) {
      return fail("primary tree invalid: " + tree_err);
    }
    if (primary_->size() != rows_.size()) {
      return fail("primary index size mismatch");
    }
    size_t pk_col = *schema_.primary_key_index();
    bool indexed = true;
    ForEachRow([&](RowId id, const Row& row) {
      const RowId* found = primary_->Find(row[pk_col]);
      indexed = found != nullptr && *found == id;
      return indexed;
    });
    if (!indexed) return fail("row missing from primary index");
  }
  for (const auto& idx : secondary_) {
    std::string tree_err;
    if (!idx.tree->Validate(&tree_err)) {
      return fail("secondary tree invalid: " + tree_err);
    }
    if (idx.tree->size() != rows_.size()) {
      return fail(StrFormat("secondary index '%s' size mismatch",
                            idx.name.c_str()));
    }
    bool indexed = true;
    ForEachRow([&](RowId id, const Row& row) {
      const RowId* found = idx.tree->Find(SecondaryKey{row[idx.column], id});
      indexed = found != nullptr && *found == id;
      return indexed;
    });
    if (!indexed) {
      return fail(StrFormat("row missing from secondary index '%s'",
                            idx.name.c_str()));
    }
  }
  return true;
}

}  // namespace clouddb::db
