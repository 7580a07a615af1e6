#include "db/schema.h"

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

Result<Schema> Schema::Create(std::vector<ColumnDef> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("table must have at least one column");
  }
  Schema schema;
  for (size_t i = 0; i < columns.size(); ++i) {
    ColumnDef& col = columns[i];
    if (col.name.empty()) {
      return Status::InvalidArgument("column name must not be empty");
    }
    if (col.type == ValueType::kNull) {
      return Status::InvalidArgument(
          StrFormat("column '%s' cannot have type NULL", col.name.c_str()));
    }
    for (size_t j = 0; j < i; ++j) {
      if (EqualsIgnoreCase(columns[j].name, col.name)) {
        return Status::InvalidArgument(
            StrFormat("duplicate column name '%s'", col.name.c_str()));
      }
    }
    if (col.primary_key) {
      if (schema.pk_index_.has_value()) {
        return Status::InvalidArgument("multiple PRIMARY KEY columns");
      }
      col.not_null = true;  // PK implies NOT NULL
      schema.pk_index_ = i;
    }
  }
  schema.columns_ = std::move(columns);
  return schema;
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return Status::NotFound(StrFormat("no column named '%s'", name.c_str()));
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table has %zu columns", row.size(),
                  columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (col.not_null) {
        return Status::InvalidArgument(
            StrFormat("NULL in NOT NULL column '%s'", col.name.c_str()));
      }
      continue;
    }
    if (v.type() != col.type) {
      return Status::InvalidArgument(
          StrFormat("type mismatch in column '%s': expected %s, got %s",
                    col.name.c_str(), ValueTypeToString(col.type),
                    ValueTypeToString(v.type())));
    }
  }
  return Status::Ok();
}

}  // namespace clouddb::db
