#ifndef CLOUDDB_DB_TABLE_H_
#define CLOUDDB_DB_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

/// Internal row identifier; stable for the life of the row.
using RowId = int64_t;

/// Composite key for secondary (non-unique) indexes: the indexed value plus
/// the row id as a tiebreaker, making every key unique in the B+Tree.
struct SecondaryKey {
  Value value;
  RowId row_id;

  friend bool operator<(const SecondaryKey& a, const SecondaryKey& b) {
    int c = Value::Compare(a.value, b.value);
    if (c != 0) return c < 0;
    return a.row_id < b.row_id;
  }
};

/// A heap of rows plus indexes.
///
/// - Rows live in a RowId-indexed store; RowIds are assigned monotonically
///   and never reused, not even after a delete or a TRUNCATE.
/// - If the schema declares a PRIMARY KEY, a unique B+Tree index over it is
///   maintained automatically and uniqueness is enforced.
/// - Any column can get a secondary (non-unique) B+Tree index.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Deep copy: every row under its RowId, the RowId counter, the schema,
  /// the primary index and every secondary index, each copied node for node
  /// by BPlusTree's copy constructor.
  std::unique_ptr<Table> Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return live_rows_; }

  /// Validates and inserts `row`; enforces PK uniqueness. Returns the new
  /// RowId.
  Result<RowId> Insert(Row row);

  /// Deletes by RowId. Returns NotFound if absent.
  Status Delete(RowId id);

  /// Replaces the row's contents (all indexes updated). The primary key may
  /// change as long as it stays unique.
  Status Update(RowId id, Row new_row);

  /// Row-based replication's direct-apply path: applies one captured row
  /// image delta — insert the after image, delete/update the row matching
  /// the before image — updating the row store, NULL-bearing column values,
  /// and every index, with no SQL involved. Before images are located by
  /// primary key when one exists (then verified column-for-column against
  /// the live row), otherwise by a first-match content scan; a mismatch
  /// means the replica diverged and fails with NotFound.
  Status ApplyRowDelta(const RowOp& op);

  /// Order-independent 64-bit checksum of the row multiset (RowIds
  /// excluded). Two tables with equal contents hash equally regardless of
  /// insertion order — the cross-replica equivalence check used by the
  /// row-based vs statement-based ablation tests.
  uint64_t ContentsHash() const;

  /// Row access (nullptr if the id is dead or was never assigned): a bounds
  /// check and one index. The unsigned difference sends ids below the first
  /// slot past the end too.
  const Row* Get(RowId id) const {
    uint64_t slot = static_cast<uint64_t>(id) -
                    static_cast<uint64_t>(first_row_id_);
    if (slot >= rows_.size()) return nullptr;
    const Row& row = rows_[slot];
    return row.empty() ? nullptr : &row;
  }

  /// Looks up by primary key. Requires a declared primary key.
  Result<RowId> FindByPrimaryKey(const Value& key) const;
  bool HasPrimaryKey() const {
    return schema_.primary_key_index().has_value();
  }

  /// Creates a secondary index on `column` (named `index_name`). Fails if the
  /// name exists or the column is unknown. Backfills existing rows, one
  /// B+Tree insert each.
  Status CreateIndex(const std::string& index_name, const std::string& column);
  bool HasIndexOn(size_t column_index) const;
  bool HasIndexNamed(const std::string& index_name) const;
  /// (index name, column name) of every secondary index, in creation order.
  std::vector<std::pair<std::string, std::string>> SecondaryIndexes() const;

  /// Visits RowIds whose `column` value is within [lo, hi] (either bound
  /// optional). Uses the secondary index on that column — callers check
  /// `HasIndexOn` first; returns FailedPrecondition otherwise.
  /// Visitor: bool(RowId) — return false to stop.
  Status ScanIndex(size_t column_index, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   const std::function<bool(RowId)>& visit) const;

  /// Visits RowIds whose primary key is within the given bounds, in key
  /// order. Requires a primary key.
  Status ScanPrimary(const Value* lo, bool lo_inclusive, const Value* hi,
                     bool hi_inclusive,
                     const std::function<bool(RowId)>& visit) const;

  /// Visits every live row in RowId order.
  /// Visitor: bool(RowId, const Row&) — return false to stop.
  template <typename Visitor>
  void ForEachRow(Visitor&& visit) const {
    RowId id = first_row_id_ - 1;
    for (const Row& row : rows_) {
      ++id;
      if (row.empty()) continue;
      if (!visit(id, row)) return;
    }
  }

  /// Removes all rows (indexes cleared; schema and index definitions kept).
  void Truncate();

  /// Deep equality of contents and catalog: equal schemas, the same set of
  /// (index name, column) secondary indexes, and the same multiset of rows
  /// (RowIds excluded); used to assert master/slave convergence. The rows
  /// are first walked in RowId order on both sides, one linear pass that
  /// settles the common case (replicas fed one statement stream hold their
  /// rows in the same order); at the first unequal pair it falls back to
  /// comparing both tables' rows sorted, so the verdict stays exact.
  static bool ContentsEqual(const Table& a, const Table& b);

  /// Internal-consistency check for tests: every row is present in every
  /// index exactly once and vice versa.
  bool ValidateIndexes(std::string* error) const;

 private:
  struct SecondaryIndex {
    std::string name;
    size_t column;
    std::unique_ptr<BPlusTree<SecondaryKey, RowId>> tree;
  };

  Status IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);
  /// The RowId of the live row matching `image` (see ApplyRowDelta).
  Result<RowId> LocateByImage(const Row& image) const;
  /// The slot of `id`, which the caller has checked with Get.
  Row& Slot(RowId id) { return rows_[static_cast<size_t>(id - first_row_id_)]; }
  RowId next_row_id() const {
    return first_row_id_ + static_cast<RowId>(rows_.size());
  }

  std::string name_;
  Schema schema_;
  // rows_[i] holds RowId first_row_id_ + i, so the slots are in RowId order
  // and the next RowId is first_row_id_ + rows_.size(). An empty Row marks a
  // deleted one: Schema::Create rejects zero-column tables, so a live row is
  // never empty. A deque appends without moving the rows already stored.
  std::deque<Row> rows_;
  RowId first_row_id_ = 1;  // the next RowId at the last TRUNCATE
  size_t live_rows_ = 0;
  std::unique_ptr<BPlusTree<Value, RowId>> primary_;  // null if no PK
  std::vector<SecondaryIndex> secondary_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_TABLE_H_
