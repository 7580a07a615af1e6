#ifndef CLOUDDB_DB_SCHEMA_H_
#define CLOUDDB_DB_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

/// Definition of one column.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;
  bool not_null = false;
  bool primary_key = false;  // at most one column per table

  friend bool operator==(const ColumnDef&, const ColumnDef&) = default;
};

/// A table's column layout. Column order is the row layout.
class Schema {
 public:
  Schema() = default;

  /// Validates the definitions (unique names, at most one primary key;
  /// a primary key is implicitly NOT NULL).
  static Result<Schema> Create(std::vector<ColumnDef> columns);

  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of column `name` (case-insensitive), or error.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Index of the primary-key column, if declared.
  std::optional<size_t> primary_key_index() const { return pk_index_; }

  /// Checks a row against the schema: arity, each value's type, NOT NULL.
  Status ValidateRow(const Row& row) const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<ColumnDef> columns_;
  std::optional<size_t> pk_index_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SCHEMA_H_
