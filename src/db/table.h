#ifndef CLOUDDB_DB_TABLE_H_
#define CLOUDDB_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
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

/// Access paths the executor can choose for a statement.
enum class AccessPathKind { kPkEq, kIndexEq, kIndexRange, kTableScan };

/// Memoized access-path decision for one WHERE predicate shape — the
/// ordered (column, op) list of index-usable constraints. Literal values are
/// deliberately absent from both key and hint: NULL-valued comparisons are
/// dropped before the shape is built, and every value-dependent decision
/// (predicate subsumption, scan bounds) is recomputed per execution.
struct PlanHint {
  AccessPathKind kind = AccessPathKind::kTableScan;
  /// kPkEq/kIndexEq: index of the chosen constraint in the extracted list;
  /// kIndexRange: the column index to range-scan. Unused for kTableScan.
  size_t chosen = 0;
  std::string plan;        // ExecResult.plan label, e.g. "pk_eq(id)"
  std::string ordered_by;  // ExecResult.scan_ordered_by
};

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
/// - Rows live in an id-addressed store; RowIds are assigned monotonically.
/// - If the schema declares a PRIMARY KEY, a unique B+Tree index over it is
///   maintained automatically and uniqueness is enforced.
/// - Any column can get a secondary (non-unique) B+Tree index.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Deep copy: every row under its RowId, the RowId counter, the schema,
  /// the primary index and every secondary index (each rebuilt with
  /// BPlusTree::BulkLoad from the source tree's key order). The plan memo is
  /// a cache and starts empty.
  std::unique_ptr<Table> Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  /// Validates and inserts `row`; enforces PK uniqueness. Returns the new
  /// RowId.
  Result<RowId> Insert(Row row);

  /// Deletes by RowId. Returns NotFound if absent.
  Status Delete(RowId id);

  /// Replaces the row's contents (all indexes updated). The primary key may
  /// change as long as it stays unique.
  Status Update(RowId id, Row new_row);

  /// Re-inserts a previously deleted row under its original RowId (used by
  /// transaction rollback). Fails if the id is live or the primary key
  /// duplicates a live row.
  Status RestoreRow(RowId id, Row row);

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

  /// Row access (nullptr if the id is dead).
  const Row* Get(RowId id) const;

  /// Looks up by primary key. Requires a declared primary key.
  Result<RowId> FindByPrimaryKey(const Value& key) const;
  bool HasPrimaryKey() const {
    return schema_.primary_key_index().has_value();
  }

  /// Creates a secondary index on `column` (named `index_name`). Fails if the
  /// name exists or the column is unknown. Backfills existing rows.
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
    for (const auto& [id, row] : rows_) {
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

  // --- Planner memoization --------------------------------------------------
  // Access-path selection depends only on the predicate shape and this
  // table's index set, so repeated statements (the common case under the
  // statement cache) skip re-deriving it. CreateIndex clears the memo — a
  // new index can change the best path for an already-seen shape.

  /// Cached decision for `shape`, or nullptr if not yet memoized.
  const PlanHint* FindPlanHint(const std::string& shape) const;
  /// Records the decision for `shape` (no-op once kPlanMemoMaxShapes
  /// distinct shapes are held; a workload with unbounded shapes would
  /// otherwise grow the memo without ever hitting it).
  void MemoizePlanHint(const std::string& shape, PlanHint hint);
  size_t plan_memo_size() const { return plan_memo_.size(); }

  static constexpr size_t kPlanMemoMaxShapes = 64;

 private:
  struct SecondaryIndex {
    std::string name;
    size_t column;
    std::unique_ptr<BPlusTree<SecondaryKey, RowId>> tree;
  };

  Status IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);
  /// The live row matching `image` (see ApplyRowDelta). Returns the rows_
  /// iterator so the delta path mutates in place instead of re-finding the
  /// row it just located.
  Result<std::map<RowId, Row>::iterator> LocateByImage(const Row& image);
  /// Index-maintaining in-place update of `it`'s row; shared by Update and
  /// the row-delta fast path.
  Status UpdateLocated(std::map<RowId, Row>::iterator it, Row new_row);

  std::string name_;
  Schema schema_;
  RowId next_row_id_ = 1;
  // std::map keeps ForEachRow deterministic in RowId order.
  std::map<RowId, Row> rows_;
  std::unique_ptr<BPlusTree<Value, RowId>> primary_;  // null if no PK
  std::vector<SecondaryIndex> secondary_;
  std::unordered_map<std::string, PlanHint> plan_memo_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_TABLE_H_
