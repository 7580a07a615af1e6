#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "common/str_util.h"
#include "db/expr_eval.h"
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

bool IsDdl(const Statement& stmt) {
  return std::holds_alternative<CreateTableStatement>(stmt) ||
         std::holds_alternative<CreateIndexStatement>(stmt);
}

/// A single-column comparison extracted from the WHERE conjunction, with the
/// non-column side already evaluated.
struct Constraint {
  size_t column;
  BinaryOp op;  // kEq, kLt, kLe, kGt, kGe (kNe is never index-usable)
  Value value;
};

bool ExprHasFunctionCall(const Expr& expr) {
  if (expr.kind == Expr::Kind::kFunctionCall) return true;
  for (const auto& arg : expr.args) {
    if (arg != nullptr && ExprHasFunctionCall(*arg)) return true;
  }
  if (expr.lhs != nullptr && ExprHasFunctionCall(*expr.lhs)) return true;
  if (expr.rhs != nullptr && ExprHasFunctionCall(*expr.rhs)) return true;
  return false;
}

/// Coverage rule for row-based capture: a statement carrying any function
/// call is never covered. Functions may be non-deterministic (NOW_MICROS),
/// and statement-based semantics — which the row-based toggle must reproduce
/// bit-identically — re-evaluate them per replica; the heartbeat delay
/// measurement depends on exactly that.
bool StatementHasFunctionCall(const Statement& stmt) {
  if (const auto* insert = std::get_if<InsertStatement>(&stmt)) {
    for (const auto& expr : insert->values) {
      if (expr != nullptr && ExprHasFunctionCall(*expr)) return true;
    }
  }
  return false;
}

}  // namespace

/// Executor of one statement: access path selection and predicate filtering
/// for a SELECT, an INSERT's one row write, and the two DDL statements. A
/// statement that fails does so before it changes anything (an INSERT's
/// Table::Insert is its last fallible step), so a failure leaves no trace.
class Executor {
 public:
  /// `capture` (nullable) receives the row an INSERT writes — the row-based
  /// replication writeset. Null (the default) skips capture entirely, so
  /// statement-based mode pays nothing.
  Executor(Database* database, const std::vector<Value>* params = nullptr,
           std::shared_ptr<const RowOp>* capture = nullptr)
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
    // Evaluate the value expressions (no row context: column refs fail).
    std::vector<Value> values;
    values.reserve(stmt.values.size());
    for (const auto& expr : stmt.values) {
      CLOUDDB_ASSIGN_OR_RETURN(
          Value v,
          EvaluateExpr(*expr, nullptr, nullptr, db_->functions_, params_));
      values.push_back(std::move(v));
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
      for (size_t i = 0; i < stmt.columns.size(); ++i) {
        CLOUDDB_ASSIGN_OR_RETURN(size_t col,
                                 schema.ColumnIndex(stmt.columns[i]));
        row[col] = std::move(values[i]);
      }
    }
    CLOUDDB_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(row)));
    if (capture_ != nullptr) {
      // The after image is the row as *stored* (post type-coercion), fetched
      // back so a slave's direct apply reproduces it bit for bit.
      *capture_ = std::make_shared<const RowOp>(
          RowOp{TableKey(stmt.table), *table->Get(id)});
    }
    ExecResult result;
    result.rows_affected = 1;
    return result;
  }

  Result<ExecResult> Select(const SelectStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    const Schema& schema = table->schema();
    ExecResult result;
    // Resolve LIMIT: a cached template carries it as a parameter slot.
    std::optional<int64_t> stmt_limit = stmt.limit;
    if (stmt.limit_param.has_value()) {
      if (params_ == nullptr || *stmt.limit_param >= params_->size()) {
        return Status::Internal("unbound LIMIT parameter");
      }
      CLOUDDB_ASSIGN_OR_RETURN(int64_t n,
                               (*params_)[*stmt.limit_param].ToInt64());
      if (n < 0) return Status::InvalidArgument("LIMIT must be non-negative");
      stmt_limit = n;
    }
    // Limit pushdown hints: when the scan can prove the predicate and the
    // requested order, it may stop early.
    int64_t limit_hint = -1;
    size_t order_col = SIZE_MAX;
    if (stmt_limit.has_value() && stmt.aggregates.empty()) {
      limit_hint = *stmt_limit;
    }
    if (!stmt.order_by.empty()) {
      CLOUDDB_ASSIGN_OR_RETURN(order_col, schema.ColumnIndex(stmt.order_by));
    }
    CLOUDDB_ASSIGN_OR_RETURN(
        std::vector<RowId> matches,
        CollectMatches(table, stmt.where.get(), &result, limit_hint,
                       order_col, stmt.order_desc));
    if (!stmt.aggregates.empty()) {
      return Aggregate(stmt, *table, matches, std::move(result));
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
    // ORDER BY before projection (the sort column need not be projected).
    if (!stmt.order_by.empty()) {
      CLOUDDB_ASSIGN_OR_RETURN(size_t sort_col,
                               schema.ColumnIndex(stmt.order_by));
      if (EqualsIgnoreCase(result.scan_ordered_by, stmt.order_by)) {
        // The index scan already produced this order.
        if (stmt.order_desc) std::reverse(rows.begin(), rows.end());
      } else {
        bool desc = stmt.order_desc;
        std::stable_sort(rows.begin(), rows.end(),
                         [&](const Row* a, const Row* b) {
                           int c = Value::Compare((*a)[sort_col],
                                                  (*b)[sort_col]);
                           return desc ? c > 0 : c < 0;
                         });
      }
    }
    size_t limit = stmt_limit.has_value() ? static_cast<size_t>(*stmt_limit)
                                          : rows.size();
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      Row out;
      out.reserve(proj.size());
      for (size_t col : proj) out.push_back((*rows[i])[col]);
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  /// Computes the aggregate SELECT list over the matched rows.
  /// SQL semantics: NULL inputs are skipped; MIN/MAX/SUM/AVG over an empty
  /// (or all-NULL) set yield NULL; COUNT(*) yields 0.
  Result<ExecResult> Aggregate(const SelectStatement& stmt, const Table& table,
                               const std::vector<RowId>& matches,
                               ExecResult result) {
    const Schema& schema = table.schema();
    Row out_row;
    for (const AggregateItem& item : stmt.aggregates) {
      if (item.fn == AggregateFn::kCountStar) {
        result.column_names.push_back("COUNT(*)");
        out_row.push_back(Value(static_cast<int64_t>(matches.size())));
        continue;
      }
      CLOUDDB_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(item.column));
      result.column_names.push_back(StrFormat(
          "%s(%s)", AggregateFnToString(item.fn), item.column.c_str()));
      bool numeric_needed =
          item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg;
      if (numeric_needed && schema.columns()[col].type == ValueType::kString) {
        return Status::InvalidArgument(
            StrFormat("%s over non-numeric column '%s'",
                      AggregateFnToString(item.fn), item.column.c_str()));
      }
      int64_t count = 0;
      int64_t int_sum = 0;
      double dbl_sum = 0.0;
      Value best;  // MIN/MAX accumulator
      for (RowId id : matches) {
        const Value& v = (*table.Get(id))[col];
        if (v.is_null()) continue;
        ++count;
        switch (item.fn) {
          case AggregateFn::kMin:
            if (best.is_null() || v < best) best = v;
            break;
          case AggregateFn::kMax:
            if (best.is_null() || v > best) best = v;
            break;
          case AggregateFn::kSum:
          case AggregateFn::kAvg:
            if (v.type() == ValueType::kInt64) {
              int_sum += v.AsInt64();
            } else {
              CLOUDDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
              dbl_sum += d;
            }
            break;
          default:
            break;
        }
      }
      if (count == 0) {
        out_row.push_back(Value::Null());
        continue;
      }
      switch (item.fn) {
        case AggregateFn::kMin:
        case AggregateFn::kMax:
          out_row.push_back(best);
          break;
        case AggregateFn::kSum:
          // SUM(int column) stays integral; any double contribution widens.
          if (schema.columns()[col].type == ValueType::kInt64) {
            out_row.push_back(Value(int_sum));
          } else {
            out_row.push_back(Value(dbl_sum + static_cast<double>(int_sum)));
          }
          break;
        case AggregateFn::kAvg:
          out_row.push_back(
              Value((dbl_sum + static_cast<double>(int_sum)) /
                    static_cast<double>(count)));
          break;
        default:
          break;
      }
    }
    result.rows.push_back(std::move(out_row));
    return result;
  }

  /// Extracts index-usable single-column constraints from the WHERE
  /// conjunction (col op <row-independent expr>, either side). Clears
  /// `*exhaustive` when some leaf yields no constraint.
  Status ExtractConstraints(const Expr& expr, const Schema& schema,
                            std::vector<Constraint>* out, bool* exhaustive) {
    if (expr.kind == Expr::Kind::kBinary && expr.op == BinaryOp::kAnd) {
      CLOUDDB_RETURN_IF_ERROR(
          ExtractConstraints(*expr.lhs, schema, out, exhaustive));
      return ExtractConstraints(*expr.rhs, schema, out, exhaustive);
    }
    const size_t before = out->size();
    CLOUDDB_RETURN_IF_ERROR(ExtractConstraint(expr, schema, out));
    if (out->size() == before) *exhaustive = false;
    return Status::Ok();
  }

  /// Appends the constraint of one WHERE leaf, if it has one. A
  /// non-comparison, a column-vs-column or unknown-column comparison and a
  /// NULL-valued comparison have none.
  Status ExtractConstraint(const Expr& expr, const Schema& schema,
                           std::vector<Constraint>* out) {
    if (expr.kind != Expr::Kind::kBinary) return Status::Ok();
    BinaryOp op = expr.op;
    if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
        op != BinaryOp::kGt && op != BinaryOp::kGe) {
      return Status::Ok();
    }
    const Expr* col_side = nullptr;
    const Expr* val_side = nullptr;
    if (expr.lhs->kind == Expr::Kind::kColumnRef &&
        IsRowIndependent(*expr.rhs)) {
      col_side = expr.lhs.get();
      val_side = expr.rhs.get();
    } else if (expr.rhs->kind == Expr::Kind::kColumnRef &&
               IsRowIndependent(*expr.lhs)) {
      col_side = expr.rhs.get();
      val_side = expr.lhs.get();
      // Flip the operator: `5 < col` means `col > 5`.
      switch (op) {
        case BinaryOp::kLt:
          op = BinaryOp::kGt;
          break;
        case BinaryOp::kLe:
          op = BinaryOp::kGe;
          break;
        case BinaryOp::kGt:
          op = BinaryOp::kLt;
          break;
        case BinaryOp::kGe:
          op = BinaryOp::kLe;
          break;
        default:
          break;
      }
    } else {
      return Status::Ok();
    }
    auto col_idx = schema.ColumnIndex(col_side->column);
    if (!col_idx.ok()) return Status::Ok();  // checked later by the filter
    CLOUDDB_ASSIGN_OR_RETURN(
        Value v,
        EvaluateExpr(*val_side, nullptr, nullptr, db_->functions_, params_));
    if (v.is_null()) return Status::Ok();  // NULL comparisons never match
    out->push_back(Constraint{*col_idx, op, std::move(v)});
    return Status::Ok();
  }

  /// Selects an access path, gathers candidate rows, applies the full
  /// predicate, and returns matching RowIds in access order.
  ///
  /// `limit_hint` (>= 0), `order_col` and `order_desc` enable limit
  /// pushdown: when the scan's bounds prove the whole predicate and the
  /// index order satisfies the requested ORDER BY (or there is none), the
  /// scan stops after `limit_hint` rows.
  Result<std::vector<RowId>> CollectMatches(Table* table, const Expr* where,
                                            ExecResult* meta,
                                            int64_t limit_hint,
                                            size_t order_col,
                                            bool order_desc) {
    const Schema& schema = table->schema();
    std::vector<Constraint> constraints;
    bool exhaustive = true;  // every WHERE leaf became a constraint
    if (where != nullptr) {
      CLOUDDB_RETURN_IF_ERROR(
          ExtractConstraints(*where, schema, &constraints, &exhaustive));
    }
    // Access-path selection: PK equality, then any indexed equality, then an
    // indexed range, then full scan.
    auto pk = schema.primary_key_index();
    const Constraint* chosen_eq = nullptr;
    size_t range_col = SIZE_MAX;
    for (const Constraint& c : constraints) {
      if (c.op != BinaryOp::kEq || !table->HasIndexOn(c.column)) continue;
      if (pk.has_value() && c.column == *pk) {
        chosen_eq = &c;
        break;  // best possible
      }
      if (chosen_eq == nullptr) chosen_eq = &c;
    }
    if (chosen_eq == nullptr) {
      for (const Constraint& c : constraints) {
        if (c.op != BinaryOp::kEq && table->HasIndexOn(c.column)) {
          range_col = c.column;
          break;
        }
      }
    }

    // Limit pushdown: decide whether the scan alone proves the predicate
    // and delivers the requested order. It does when every WHERE leaf is a
    // constraint the scan's bounds encode: `=` the chosen value on an
    // equality path, any range comparison on the column of a range path.
    size_t scan_col = chosen_eq != nullptr ? chosen_eq->column : range_col;
    bool subsumed = where == nullptr || (scan_col != SIZE_MAX && exhaustive);
    for (size_t i = 0; subsumed && i < constraints.size(); ++i) {
      const Constraint& c = constraints[i];
      subsumed = c.column == scan_col &&
                 (chosen_eq != nullptr
                      ? c.op == BinaryOp::kEq &&
                            Value::Compare(c.value, chosen_eq->value) == 0
                      : c.op != BinaryOp::kEq);
    }
    int64_t early_stop = -1;
    if (limit_hint >= 0 && subsumed) {
      bool order_satisfied =
          order_col == SIZE_MAX ||
          (scan_col != SIZE_MAX && order_col == scan_col && !order_desc);
      if (order_satisfied && (scan_col != SIZE_MAX || where == nullptr)) {
        // Unordered full scans with no predicate may also stop early.
        if (scan_col != SIZE_MAX || order_col == SIZE_MAX) {
          early_stop = limit_hint;
        }
      }
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
    } else if (range_col != SIZE_MAX) {
      // Combine all range constraints on the chosen column into bounds.
      const Value* lo = nullptr;
      const Value* hi = nullptr;
      bool lo_inc = true;
      bool hi_inc = true;
      for (const Constraint& c : constraints) {
        if (c.column != range_col) continue;
        switch (c.op) {
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            if (lo == nullptr || c.value > *lo) {
              lo = &c.value;
              lo_inc = c.op == BinaryOp::kGe;
            }
            break;
          case BinaryOp::kLt:
          case BinaryOp::kLe:
            if (hi == nullptr || c.value < *hi) {
              hi = &c.value;
              hi_inc = c.op == BinaryOp::kLe;
            }
            break;
          default:
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

    if (where == nullptr || subsumed) return candidates;
    std::vector<RowId> matches;
    matches.reserve(candidates.size());
    for (RowId id : candidates) {
      const Row* row = table->Get(id);
      CLOUDDB_ASSIGN_OR_RETURN(
          bool keep, EvaluatePredicate(*where, &schema, row, db_->functions_,
                                       params_));
      if (keep) matches.push_back(id);
    }
    return matches;
  }

  Database* db_;
  const std::vector<Value>* params_;  // null unless running a cached template
  std::shared_ptr<const RowOp>* capture_;  // row-based writeset sink or null
};

Database::Database(DatabaseOptions options)
    : options_(std::move(options)), functions_(options_.now_micros) {}

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
  // function calls — see StatementHasFunctionCall).
  bool binlog_active = options_.enable_binlog && !binlog_suppressed_;
  bool row_capture = options_.row_based_repl && binlog_active && is_write &&
                     !IsDdl(stmt) && !StatementHasFunctionCall(stmt);
  std::shared_ptr<const RowOp> captured;
  Result<ExecResult> result = Executor(this, compiled->params(),
                                       row_capture ? &captured : nullptr)
                                  .Run(stmt);
  if (!result.ok()) return result;
  // DDL changed the catalog: cached templates must not survive it.
  if (IsDdl(stmt)) statement_cache_.Invalidate();
  // Commit: a write becomes one binlog event, carrying a writeset in
  // row-based mode (uncovered, with no row, for DDL and function calls).
  if (is_write && binlog_active) {
    std::optional<StatementWriteset> writeset;
    if (options_.row_based_repl) {
      writeset = StatementWriteset{std::move(captured)};
    }
    binlog_.Append(compiled, std::move(writeset),
                   options_.now_micros ? options_.now_micros() : 0);
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

void Database::SetTimeSource(std::function<int64_t()> now_micros) {
  options_.now_micros = now_micros;
  functions_.SetTimeSource(std::move(now_micros));
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
  // The catalog changed under any cached templates, exactly as after DDL.
  statement_cache_.Invalidate();
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
