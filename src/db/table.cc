#include "db/table.h"

#include <algorithm>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

/// Rebuilds `to` as a copy of `from`. The source scan yields strictly
/// increasing keys, which is exactly BulkLoad's precondition.
template <typename K>
void CopyTree(const BPlusTree<K, RowId>& from, BPlusTree<K, RowId>* to) {
  std::vector<std::pair<K, RowId>> entries;
  entries.reserve(from.size());
  from.ScanAll([&](const K& key, const RowId& id) {
    entries.emplace_back(key, id);
    return true;
  });
  to->BulkLoad(std::move(entries));
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (schema_.primary_key_index().has_value()) {
    primary_ = std::make_unique<BPlusTree<Value, RowId>>();
  }
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(name_, schema_);
  copy->next_row_id_ = next_row_id_;
  copy->rows_ = rows_;
  if (primary_ != nullptr) CopyTree(*primary_, copy->primary_.get());
  for (const SecondaryIndex& idx : secondary_) {
    auto tree = std::make_unique<BPlusTree<SecondaryKey, RowId>>();
    CopyTree(*idx.tree, tree.get());
    copy->secondary_.push_back(
        SecondaryIndex{idx.name, idx.column, std::move(tree)});
  }
  return copy;
}

Result<RowId> Table::Insert(Row row) {
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&row));
  // The primary tree's Insert already detects duplicates, so there is no
  // separate Contains() probe — one traversal instead of two. The row id is
  // only consumed once the insert is known to stick.
  RowId id = next_row_id_;
  Status st = IndexInsert(id, row);
  if (!st.ok()) {
    if (primary_ != nullptr) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table '%s'",
                    row[*schema_.primary_key_index()].ToSqlLiteral().c_str(),
                    name_.c_str()));
    }
    return st;
  }
  ++next_row_id_;
  rows_.emplace(id, std::move(row));
  return id;
}

Status Table::Delete(RowId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound(StrFormat("row %lld not found in table '%s'",
                                      static_cast<long long>(id),
                                      name_.c_str()));
  }
  IndexErase(id, it->second);
  rows_.erase(it);
  return Status::Ok();
}

Status Table::Update(RowId id, Row new_row) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound(StrFormat("row %lld not found in table '%s'",
                                      static_cast<long long>(id),
                                      name_.c_str()));
  }
  return UpdateLocated(it, std::move(new_row));
}

Status Table::UpdateLocated(std::map<RowId, Row>::iterator it, Row new_row) {
  RowId id = it->first;
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&new_row));
  const Row& old_row = it->second;
  // Maintain only the indexes whose key column actually changed. The common
  // replicated UPDATE touches non-indexed columns, where a blanket
  // erase+reinsert would pay two B+Tree rebalances per index for nothing.
  bool pk_changed = false;
  if (primary_ != nullptr) {
    size_t pk_col = *schema_.primary_key_index();
    const Value& old_pk = old_row[pk_col];
    const Value& new_pk = new_row[pk_col];
    pk_changed = old_pk != new_pk;
    if (pk_changed && primary_->Contains(new_pk)) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table '%s'",
                    new_pk.ToSqlLiteral().c_str(), name_.c_str()));
    }
  }
  if (pk_changed) {
    size_t pk_col = *schema_.primary_key_index();
    primary_->Erase(old_row[pk_col]);
    primary_->Insert(new_row[pk_col], id);
  }
  for (auto& idx : secondary_) {
    if (old_row[idx.column] == new_row[idx.column]) continue;
    idx.tree->Erase(SecondaryKey{old_row[idx.column], id});
    idx.tree->Insert(SecondaryKey{new_row[idx.column], id}, id);
  }
  it->second = std::move(new_row);
  return Status::Ok();
}

Status Table::RestoreRow(RowId id, Row row) {
  if (rows_.count(id) > 0) {
    return Status::AlreadyExists(
        StrFormat("row %lld is live in table '%s'", static_cast<long long>(id),
                  name_.c_str()));
  }
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&row));
  if (primary_ != nullptr) {
    const Value& pk = row[*schema_.primary_key_index()];
    if (primary_->Contains(pk)) {
      return Status::AlreadyExists("duplicate primary key on restore");
    }
  }
  CLOUDDB_RETURN_IF_ERROR(IndexInsert(id, row));
  rows_.emplace(id, std::move(row));
  if (id >= next_row_id_) next_row_id_ = id + 1;
  return Status::Ok();
}

Status Table::ApplyRowDelta(const RowOp& op) {
  switch (op.kind) {
    case RowOp::Kind::kInsert: {
      Result<RowId> id = Insert(Row(op.after));
      return id.ok() ? Status::Ok() : id.status();
    }
    case RowOp::Kind::kDelete: {
      CLOUDDB_ASSIGN_OR_RETURN(auto it, LocateByImage(op.before));
      IndexErase(it->first, it->second);
      rows_.erase(it);
      return Status::Ok();
    }
    case RowOp::Kind::kUpdate: {
      CLOUDDB_ASSIGN_OR_RETURN(auto it, LocateByImage(op.before));
      return UpdateLocated(it, Row(op.after));
    }
  }
  return Status::Internal("unknown row op kind");
}

Result<std::map<RowId, Row>::iterator> Table::LocateByImage(const Row& image) {
  if (image.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row image has %zu columns, table '%s' has %zu",
                  image.size(), name_.c_str(), schema_.num_columns()));
  }
  auto matches = [&](const Row& row) {
    for (size_t i = 0; i < image.size(); ++i) {
      if (row[i] != image[i]) return false;
    }
    return true;
  };
  if (primary_ != nullptr) {
    CLOUDDB_ASSIGN_OR_RETURN(
        RowId id, FindByPrimaryKey(image[*schema_.primary_key_index()]));
    auto it = rows_.find(id);
    if (it == rows_.end() || !matches(it->second)) {
      return Status::NotFound(StrFormat(
          "before image mismatch for %s in table '%s' (replica diverged)",
          image[*schema_.primary_key_index()].ToSqlLiteral().c_str(),
          name_.c_str()));
    }
    return it;
  }
  // No primary key: first content-equal row in RowId order. Any matching
  // row is interchangeable for multiset equality, and scanning in RowId
  // order keeps the choice deterministic.
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    if (matches(it->second)) return it;
  }
  return Status::NotFound(StrFormat(
      "no row matching before image in table '%s' (replica diverged)",
      name_.c_str()));
}

uint64_t Table::ContentsHash() const {
  // FNV-1a over each row's values, summed (mod 2^64) across rows so the
  // result is independent of RowId assignment and iteration order.
  uint64_t total = 0;
  for (const auto& [id, row] : rows_) {
    uint64_t h = 1469598103934665603ull;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    total += h;
  }
  return total ^ (static_cast<uint64_t>(rows_.size()) * 0x9e3779b97f4a7c15ull);
}

const Row* Table::Get(RowId id) const {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

Result<RowId> Table::FindByPrimaryKey(const Value& key) const {
  if (primary_ == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("table '%s' has no primary key", name_.c_str()));
  }
  const RowId* id = primary_->Find(key);
  if (id == nullptr) {
    return Status::NotFound(StrFormat("primary key %s not found",
                                      key.ToSqlLiteral().c_str()));
  }
  return *id;
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
  // Backfill via sort + bulk load: building the tree bottom-up at full
  // fan-out beats n individual inserts (no splits, no per-key descent).
  // SecondaryKey's RowId tiebreaker makes the sorted keys strictly
  // increasing, which BulkLoad requires.
  std::vector<std::pair<SecondaryKey, RowId>> entries;
  entries.reserve(rows_.size());
  for (const auto& [id, row] : rows_) {
    entries.emplace_back(SecondaryKey{row[col], id}, id);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  idx.tree->BulkLoad(std::move(entries));
  secondary_.push_back(std::move(idx));
  // The new index can beat the memoized path for already-seen shapes.
  plan_memo_.clear();
  return Status::Ok();
}

const PlanHint* Table::FindPlanHint(const std::string& shape) const {
  auto it = plan_memo_.find(shape);
  return it == plan_memo_.end() ? nullptr : &it->second;
}

void Table::MemoizePlanHint(const std::string& shape, PlanHint hint) {
  if (plan_memo_.size() >= kPlanMemoMaxShapes) return;
  plan_memo_.emplace(shape, std::move(hint));
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

void Table::Truncate() {
  rows_.clear();
  if (primary_ != nullptr) primary_->Clear();
  for (auto& idx : secondary_) idx.tree->Clear();
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
  // walk both stores in lockstep first: equal sequences are equal multisets.
  auto ia = a.rows_.begin();
  auto ib = b.rows_.begin();
  while (ia != a.rows_.end() && ia->second == ib->second) {
    ++ia;
    ++ib;
  }
  if (ia == a.rows_.end()) return true;
  // The orders differ: compare as sorted multisets of rows (RowIds excluded;
  // contents are what matter).
  std::vector<const Row*> ra, rb;
  ra.reserve(a.rows_.size());
  rb.reserve(b.rows_.size());
  for (const auto& [id, row] : a.rows_) ra.push_back(&row);
  for (const auto& [id, row] : b.rows_) rb.push_back(&row);
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
    for (const auto& [id, row] : rows_) {
      const RowId* found = primary_->Find(row[pk_col]);
      if (found == nullptr || *found != id) {
        return fail("row missing from primary index");
      }
    }
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
    for (const auto& [id, row] : rows_) {
      const RowId* found = idx.tree->Find(SecondaryKey{row[idx.column], id});
      if (found == nullptr || *found != id) {
        return fail(StrFormat("row missing from secondary index '%s'",
                              idx.name.c_str()));
      }
    }
  }
  return true;
}

Status Table::IndexInsert(RowId id, const Row& row) {
  if (primary_ != nullptr) {
    const Value& pk = row[*schema_.primary_key_index()];
    if (!primary_->Insert(pk, id)) {
      return Status::AlreadyExists("duplicate primary key");
    }
  }
  for (auto& idx : secondary_) {
    idx.tree->Insert(SecondaryKey{row[idx.column], id}, id);
  }
  return Status::Ok();
}

void Table::IndexErase(RowId id, const Row& row) {
  if (primary_ != nullptr) {
    primary_->Erase(row[*schema_.primary_key_index()]);
  }
  for (auto& idx : secondary_) {
    idx.tree->Erase(SecondaryKey{row[idx.column], id});
  }
}

}  // namespace clouddb::db
