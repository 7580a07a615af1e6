#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/schema.h"
#include "db/sql_ast.h"
#include "db/statement_cache.h"
#include "db/table.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

/// Lower-cased catalog key for a table name.
std::string TableKey(const std::string& name) { return ToLower(name); }

/// Coverage rule for row-based capture: an INSERT with a NOW_MICROS() value
/// is never covered. Statement-based semantics, which the row-based toggle
/// must reproduce bit-identically, re-evaluate it per replica; the heartbeat
/// delay measurement depends on exactly that.
bool InsertReadsTheClock(const Statement& stmt) {
  const auto* insert = std::get_if<InsertStatement>(&stmt);
  return insert != nullptr &&
         std::any_of(insert->values.begin(), insert->values.end(),
                     [](const Operand& v) {
                       return v.kind == Operand::Kind::kNowMicros;
                     });
}

/// A WHERE comparison resolved against the table it runs on: the column's
/// slot and the operand's value.
struct Constraint {
  size_t column;
  CompareOp op;
  Value value;
};

/// True when `row` satisfies `c`. A NULL on either side never matches.
bool Satisfies(const Row& row, const Constraint& c) {
  const Value& v = row[c.column];
  if (v.is_null() || c.value.is_null()) return false;
  int cmp = Value::Compare(v, c.value);
  switch (c.op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// "No column": the scan column of a table scan, or an unordered SELECT's
/// sort column.
constexpr size_t kNoColumn = SIZE_MAX;

}  // namespace

/// Executor of one statement: access path selection and predicate filtering
/// for a SELECT, an INSERT's one row write, and the two DDL statements. A
/// statement that fails does so before it changes anything (an INSERT's
/// Table::Insert is its last fallible step), so a failure leaves no trace.
class Executor {
 public:
  /// `params` are the values bound to the statement's parameter slots.
  /// `capture` (nullable) receives the row an INSERT writes — the row-based
  /// replication writeset. Null skips capture entirely, so statement-based
  /// mode pays nothing.
  Executor(Database* database, const std::vector<Value>& params,
           std::shared_ptr<const RowOp>* capture)
      : db_(database), params_(params), capture_(capture) {}

  Result<ExecResult> Run(const Statement& stmt) {
    struct Visitor {
      Executor* e;
      Result<ExecResult> operator()(const CreateTableStatement& s) {
        return e->CreateTable(s);
      }
      Result<ExecResult> operator()(const CreateIndexStatement& s) {
        return e->CreateIndex(s);
      }
      Result<ExecResult> operator()(const InsertStatement& s) {
        return e->Insert(s);
      }
      Result<ExecResult> operator()(const SelectStatement& s) {
        return e->Select(s);
      }
    };
    return std::visit(Visitor{this}, stmt);
  }

 private:
  Result<Table*> ResolveTable(const std::string& name) {
    Table* t = db_->GetTable(name);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("no table named '%s'", name.c_str()));
    }
    return t;
  }

  Result<ExecResult> CreateTable(const CreateTableStatement& stmt) {
    if (db_->GetTable(stmt.table) != nullptr) {
      return Status::AlreadyExists(
          StrFormat("table '%s' already exists", stmt.table.c_str()));
    }
    CLOUDDB_ASSIGN_OR_RETURN(Schema schema, Schema::Create(stmt.columns));
    db_->tables_.emplace(TableKey(stmt.table), std::make_unique<Table>(
                                                   stmt.table, std::move(schema)));
    return ExecResult{};
  }

  Result<ExecResult> CreateIndex(const CreateIndexStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    CLOUDDB_RETURN_IF_ERROR(table->CreateIndex(stmt.index, stmt.column));
    return ExecResult{};
  }

  Result<ExecResult> Insert(const InsertStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    const Schema& schema = table->schema();
    std::vector<Value> values;
    values.reserve(stmt.values.size());
    for (const Operand& operand : stmt.values) {
      values.push_back(Resolve(operand));
    }
    Row row;
    if (stmt.columns.empty()) {
      if (values.size() != schema.num_columns()) {
        return Status::InvalidArgument(
            StrFormat("INSERT supplies %zu values for %zu columns",
                      values.size(), schema.num_columns()));
      }
      row = std::move(values);
    } else {
      if (values.size() != stmt.columns.size()) {
        return Status::InvalidArgument("INSERT column/value count mismatch");
      }
      row.assign(schema.num_columns(), Value::Null());
      std::vector<bool> named(schema.num_columns(), false);
      for (size_t i = 0; i < stmt.columns.size(); ++i) {
        CLOUDDB_ASSIGN_OR_RETURN(size_t col,
                                 schema.ColumnIndex(stmt.columns[i]));
        if (named[col]) {
          return Status::InvalidArgument(StrFormat(
              "column '%s' specified twice", stmt.columns[i].c_str()));
        }
        named[col] = true;
        row[col] = std::move(values[i]);
      }
    }
    if (capture_ == nullptr) {
      CLOUDDB_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
    } else {
      // The after image is the row object the table stores, so the binlog
      // event, every shipped copy and each slave's direct apply share it.
      auto op = std::make_shared<const RowOp>(
          RowOp{TableKey(stmt.table), std::move(row)});
      CLOUDDB_RETURN_IF_ERROR(
          table->Insert(std::shared_ptr<const Row>(op, &op->after)).status());
      *capture_ = std::move(op);
    }
    ExecResult result;
    result.rows_affected = 1;
    return result;
  }

  Result<ExecResult> Select(const SelectStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    const Schema& schema = table->schema();
    ExecResult result;
    // The LIMIT count is checked here rather than by the parser: a template
    // binds it per execution, like any literal.
    std::optional<size_t> limit;
    if (stmt.limit.has_value()) {
      Value n = Resolve(*stmt.limit);
      if (n.type() != ValueType::kInt64 || n.AsInt64() < 0) {
        return Status::InvalidArgument("LIMIT must be a non-negative integer");
      }
      limit = static_cast<size_t>(n.AsInt64());
    }
    size_t order_col = kNoColumn;
    if (!stmt.order_by.empty()) {
      CLOUDDB_ASSIGN_OR_RETURN(order_col, schema.ColumnIndex(stmt.order_by));
    }
    // Limit pushdown hint: the scan may stop early when it proves the WHERE
    // clause and the order. COUNT(*) counts every match whatever the LIMIT.
    int64_t limit_hint = limit.has_value() && !stmt.count_star
                             ? static_cast<int64_t>(*limit)
                             : -1;
    CLOUDDB_ASSIGN_OR_RETURN(
        std::vector<RowId> matches,
        CollectMatches(table, stmt.where, &result, limit_hint, order_col));
    if (stmt.count_star) {
      // The one count row, unless the LIMIT cuts it (LIMIT 0).
      result.column_names.push_back("COUNT(*)");
      if (limit.value_or(1) > 0) {
        result.rows.push_back(
            Row{Value(static_cast<int64_t>(matches.size()))});
      }
      return result;
    }
    // Resolve projection.
    std::vector<size_t> proj;
    if (stmt.star) {
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        proj.push_back(i);
        result.column_names.push_back(schema.columns()[i].name);
      }
    } else {
      for (const std::string& col : stmt.columns) {
        CLOUDDB_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        proj.push_back(idx);
        result.column_names.push_back(schema.columns()[idx].name);
      }
    }
    // Fetch each matched row once (a bounds check and an index); sorting
    // and projection work on the cached pointers.
    std::vector<const Row*> rows;
    rows.reserve(matches.size());
    for (RowId id : matches) rows.push_back(table->Get(id));
    // ORDER BY before projection (the sort column need not be projected),
    // unless the index scan already produced this order.
    if (order_col != kNoColumn &&
        !EqualsIgnoreCase(result.scan_ordered_by, stmt.order_by)) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const Row* a, const Row* b) {
                         return Value::Compare((*a)[order_col],
                                               (*b)[order_col]) < 0;
                       });
    }
    size_t count = std::min(rows.size(), limit.value_or(rows.size()));
    for (size_t i = 0; i < count; ++i) {
      Row out;
      out.reserve(proj.size());
      for (size_t col : proj) out.push_back((*rows[i])[col]);
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  /// The value of one operand. NOW_MICROS() reads this database's clock.
  /// Statement-based replication re-executes each write on every replica, so
  /// it is evaluated again per replica, against that instance's drifting
  /// local clock. The paper's heartbeat mechanism relies on this for a
  /// per-replica commit timestamp: the master inserts its local time, and
  /// each slave stores its own when it re-executes the insert.
  Value Resolve(const Operand& operand) const {
    switch (operand.kind) {
      case Operand::Kind::kParameter:
        return params_[operand.param_index];
      case Operand::Kind::kNull:
        return Value::Null();
      case Operand::Kind::kNowMicros:
        return Value(db_->NowMicros());
    }
    return Value::Null();
  }

  /// Resolves the WHERE comparisons, selects an access path, gathers
  /// candidate rows, checks each comparison once per candidate row, and
  /// returns the matching RowIds in access order.
  ///
  /// `limit_hint` (>= 0) and `order_col` enable limit pushdown: when the
  /// scan's bounds prove the whole WHERE clause and the index order
  /// satisfies the requested ORDER BY (or there is none), the scan stops
  /// after `limit_hint` rows.
  Result<std::vector<RowId>> CollectMatches(
      Table* table, const std::vector<Comparison>& where, ExecResult* meta,
      int64_t limit_hint, size_t order_col) {
    const Schema& schema = table->schema();
    std::vector<Constraint> constraints;
    constraints.reserve(where.size());
    for (const Comparison& c : where) {
      CLOUDDB_ASSIGN_OR_RETURN(size_t column, schema.ColumnIndex(c.column));
      constraints.push_back(Constraint{column, c.op, Resolve(c.value)});
    }
    // A comparison with NULL matches nothing, so it gives no key to look up.
    auto indexed = [&](const Constraint& c) {
      return !c.value.is_null() && table->HasIndexOn(c.column);
    };
    // Access-path selection: PK equality, then any indexed equality, then an
    // indexed range, then full scan.
    auto pk = schema.primary_key_index();
    const Constraint* chosen_eq = nullptr;
    size_t range_col = kNoColumn;
    for (const Constraint& c : constraints) {
      if (c.op != CompareOp::kEq || !indexed(c)) continue;
      if (pk.has_value() && c.column == *pk) {
        chosen_eq = &c;
        break;  // best possible
      }
      if (chosen_eq == nullptr) chosen_eq = &c;
    }
    if (chosen_eq == nullptr) {
      for (const Constraint& c : constraints) {
        if (c.op != CompareOp::kEq && indexed(c)) {
          range_col = c.column;
          break;
        }
      }
    }

    // The scan alone proves the WHERE clause when its bounds encode every
    // comparison: `=` the chosen value on an equality path, any range
    // comparison on the column of a range path. Limit pushdown needs that
    // and the requested order: the scan column's, or none.
    size_t scan_col = chosen_eq != nullptr ? chosen_eq->column : range_col;
    bool subsumed = std::all_of(
        constraints.begin(), constraints.end(), [&](const Constraint& c) {
          return c.column == scan_col && !c.value.is_null() &&
                 (chosen_eq != nullptr
                      ? c.op == CompareOp::kEq &&
                            Value::Compare(c.value, chosen_eq->value) == 0
                      : c.op != CompareOp::kEq);
        });
    int64_t early_stop = -1;
    if (limit_hint >= 0 && subsumed &&
        (order_col == kNoColumn || order_col == scan_col)) {
      early_stop = limit_hint;
    }
    auto keep_scanning = [&](const std::vector<RowId>& collected) {
      return early_stop < 0 ||
             static_cast<int64_t>(collected.size()) < early_stop;
    };

    std::vector<RowId> candidates;
    if (chosen_eq != nullptr) {
      const std::string& name = schema.columns()[chosen_eq->column].name;
      bool is_pk = pk.has_value() && chosen_eq->column == *pk;
      meta->plan = (is_pk ? "pk_eq(" : "index_eq(") + name + ")";
      meta->scan_ordered_by = name;
      CLOUDDB_RETURN_IF_ERROR(table->ScanIndex(
          chosen_eq->column, &chosen_eq->value, true, &chosen_eq->value, true,
          [&](RowId id) {
            candidates.push_back(id);
            return keep_scanning(candidates);
          }));
    } else if (range_col != kNoColumn) {
      // Combine all range constraints on the chosen column into bounds.
      // NULL keys sort first in an index and match no comparison, so a scan
      // with no lower bound starts above them.
      const Value null_key;
      const Value* lo = &null_key;
      const Value* hi = nullptr;
      bool lo_inc = false;
      bool hi_inc = true;
      // The tighter bound wins, and of two at the same value the exclusive
      // one: the scan must not return a row some comparison rejects.
      for (const Constraint& c : constraints) {
        if (c.column != range_col || c.value.is_null()) continue;
        switch (c.op) {
          case CompareOp::kGt:
          case CompareOp::kGe: {
            int cmp = Value::Compare(c.value, *lo);
            if (cmp > 0 || (cmp == 0 && c.op == CompareOp::kGt)) {
              lo = &c.value;
              lo_inc = c.op == CompareOp::kGe;
            }
            break;
          }
          case CompareOp::kLt:
          case CompareOp::kLe: {
            int cmp = hi == nullptr ? -1 : Value::Compare(c.value, *hi);
            if (cmp < 0 || (cmp == 0 && c.op == CompareOp::kLt)) {
              hi = &c.value;
              hi_inc = c.op == CompareOp::kLe;
            }
            break;
          }
          case CompareOp::kEq:
            break;
        }
      }
      const std::string& name = schema.columns()[range_col].name;
      meta->plan = "index_range(" + name + ")";
      meta->scan_ordered_by = name;
      CLOUDDB_RETURN_IF_ERROR(
          table->ScanIndex(range_col, lo, lo_inc, hi, hi_inc, [&](RowId id) {
            candidates.push_back(id);
            return keep_scanning(candidates);
          }));
    } else {
      meta->plan = "table_scan";
      table->ForEachRow([&](RowId id, const Row&) {
        candidates.push_back(id);
        return keep_scanning(candidates);
      });
    }
    meta->rows_examined += static_cast<int64_t>(candidates.size());

    if (subsumed) return candidates;
    std::vector<RowId> matches;
    matches.reserve(candidates.size());
    for (RowId id : candidates) {
      const Row& row = *table->Get(id);
      if (std::all_of(constraints.begin(), constraints.end(),
                      [&](const Constraint& c) { return Satisfies(row, c); })) {
        matches.push_back(id);
      }
    }
    return matches;
  }

  Database* db_;
  const std::vector<Value>& params_;
  std::shared_ptr<const RowOp>* capture_;  // row-based writeset sink or null
};

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Result<ExecResult> Database::Execute(const std::string& sql) {
  return Execute(Compile(sql));
}

std::shared_ptr<const CompiledSql> Database::Compile(const std::string& sql) {
  return CompileSql(options_.statement_cache ? &statement_cache_ : nullptr,
                    sql);
}

Result<ExecResult> Database::Execute(
    const std::shared_ptr<const CompiledSql>& compiled) {
  if (!compiled->ok()) return compiled->status();
  const Statement& stmt = compiled->statement();
  bool is_write = IsWriteStatement(stmt);
  // Row-based capture: only statements that will reach the binlog capture
  // row images, and only when the coverage rule admits them (no DDL, no
  // NOW_MICROS() — see InsertReadsTheClock).
  bool binlog_active = options_.enable_binlog && !binlog_suppressed_;
  bool row_capture = options_.row_based_repl && binlog_active && is_write &&
                     !IsDdl(stmt) && !InsertReadsTheClock(stmt);
  std::shared_ptr<const RowOp> captured;
  Result<ExecResult> result = Executor(this, compiled->params(),
                                       row_capture ? &captured : nullptr)
                                  .Run(stmt);
  if (!result.ok()) return result;
  // Commit: a write becomes one binlog event, carrying a writeset in
  // row-based mode (uncovered, with no row, for DDL and NOW_MICROS()).
  if (is_write && binlog_active) {
    std::optional<StatementWriteset> writeset;
    if (options_.row_based_repl) {
      writeset = StatementWriteset{std::move(captured)};
    }
    binlog_.Append(compiled, std::move(writeset), NowMicros());
  }
  return result;
}

Table* Database::GetTable(const std::string& name) {
  auto it = tables_.find(TableKey(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(TableKey(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

bool Database::ValidateAllIndexes(std::string* error) const {
  for (const auto& [key, table] : tables_) {
    if (!table->ValidateIndexes(error)) return false;
  }
  return true;
}

void Database::CopyTablesFrom(const Database& source) {
  assert(&source != this);
  tables_.clear();
  for (const auto& [key, table] : source.tables_) {
    tables_.emplace(key, table->Clone());
  }
}

bool Database::ContentsEqual(const Database& a, const Database& b,
                             const std::vector<std::string>& ignore_tables) {
  if (a.tables_.size() != b.tables_.size()) return false;
  auto ignored = [&](const std::string& key) {
    for (const std::string& name : ignore_tables) {
      if (TableKey(name) == key) return true;
    }
    return false;
  };
  for (const auto& [key, table] : a.tables_) {
    auto it = b.tables_.find(key);
    if (it == b.tables_.end()) return false;
    if (ignored(key)) continue;
    if (!Table::ContentsEqual(*table, *it->second)) return false;
  }
  return true;
}

}  // namespace clouddb::db
