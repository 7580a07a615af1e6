#ifndef CLOUDDB_DB_TABLE_H_
#define CLOUDDB_DB_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {

/// Internal row identifier: the table's rows are numbered 1, 2, ... in
/// insertion order.
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

/// An append-only heap of rows plus indexes.
///
/// - Rows live in a RowId-indexed store; a row, once inserted, is never
///   changed or removed, so RowId i is always the i-th row inserted.
/// - A stored row is an immutable shared object: a clone of the table, and
///   every replica that inserts the same captured row, hold one copy of it.
/// - If the schema declares a PRIMARY KEY, a unique B+Tree index over it is
///   maintained automatically and uniqueness is enforced.
/// - Any column can get a secondary (non-unique) B+Tree index.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Copy that shares the rows: every slot holds the source's row object
  /// under its RowId, so no row is copied. The RowId counter, the schema,
  /// the primary index and every secondary index are the copy's own, each
  /// tree copied node for node by BPlusTree's copy constructor, so the two
  /// tables grow on their own from here.
  std::unique_ptr<Table> Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  /// Validates and inserts `row`, which the table then shares; enforces PK
  /// uniqueness and refuses a null row. Returns the new RowId. A failed
  /// insert changes nothing. The executor's INSERT and row-based
  /// replication's direct apply both store the master's captured row image
  /// through this, so the master and every slave hold one row object.
  Result<RowId> Insert(std::shared_ptr<const Row> row);
  /// Inserts a row of its own (the statement path without row capture, and
  /// tests).
  Result<RowId> Insert(Row row) {
    return Insert(std::make_shared<const Row>(std::move(row)));
  }

  /// Order-independent 64-bit checksum of the row multiset (RowIds
  /// excluded). Two tables with equal contents hash equally regardless of
  /// insertion order — the cross-replica equivalence check used by the
  /// row-based vs statement-based ablation tests.
  uint64_t ContentsHash() const;

  /// Row access (nullptr if the id was never assigned): a bounds check and
  /// one index. The unsigned difference sends ids below 1 past the end too.
  const Row* Get(RowId id) const {
    uint64_t slot = static_cast<uint64_t>(id) - 1;
    return slot < rows_.size() ? rows_[slot].get() : nullptr;
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

  /// Visits every row in RowId order.
  /// Visitor: bool(RowId, const Row&) — return false to stop.
  template <typename Visitor>
  void ForEachRow(Visitor&& visit) const {
    RowId id = 0;
    for (const std::shared_ptr<const Row>& row : rows_) {
      if (!visit(++id, *row)) return;
    }
  }

  /// Deep equality of contents and catalog: equal schemas, the same set of
  /// (index name, column) secondary indexes, and the same multiset of rows
  /// (RowIds excluded); used to assert master/slave convergence. The rows
  /// are first walked in RowId order on both sides, one linear pass that
  /// settles the common case (replicas fed one statement stream hold their
  /// rows in the same order): two slots holding one shared row are equal
  /// without comparing values, any others are compared by value. At the
  /// first unequal pair it falls back to comparing both tables' rows
  /// sorted, so the verdict stays exact.
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

  std::string name_;
  Schema schema_;
  // rows_[i] holds RowId i + 1, so the slots are in RowId order and the next
  // RowId is rows_.size() + 1. A slot points to an immutable row that clones
  // and other replicas may share; the slots themselves are this table's.
  std::deque<std::shared_ptr<const Row>> rows_;
  std::unique_ptr<BPlusTree<Value, RowId>> primary_;  // null if no PK
  std::vector<SecondaryIndex> secondary_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_TABLE_H_
