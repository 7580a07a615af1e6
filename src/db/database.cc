#include "db/database.h"

#include <algorithm>
#include <cassert>

#include "common/str_util.h"
#include "db/expr_eval.h"
#include "common/result.h"
#include "common/status.h"
#include "db/schema.h"
#include "db/sql_ast.h"
#include "db/statement_cache.h"
#include "db/table.h"
#include "db/transaction.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

/// Lower-cased catalog key for a table name.
std::string TableKey(const std::string& name) { return ToLower(name); }

bool IsDdl(const Statement& stmt) {
  return std::holds_alternative<CreateTableStatement>(stmt) ||
         std::holds_alternative<CreateIndexStatement>(stmt) ||
         std::holds_alternative<DropTableStatement>(stmt) ||
         std::holds_alternative<TruncateStatement>(stmt);
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
    return false;
  }
  if (const auto* update = std::get_if<UpdateStatement>(&stmt)) {
    for (const auto& [col, expr] : update->assignments) {
      if (expr != nullptr && ExprHasFunctionCall(*expr)) return true;
    }
    return update->where != nullptr && ExprHasFunctionCall(*update->where);
  }
  if (const auto* del = std::get_if<DeleteStatement>(&stmt)) {
    return del->where != nullptr && ExprHasFunctionCall(*del->where);
  }
  return false;
}

}  // namespace

/// Statement executor bound to one (database, session) pair. Performs access
/// path selection, predicate filtering, mutation with undo capture.
class Executor {
 public:
  /// `capture` (nullable) receives the row images of every mutation this
  /// statement performs — the row-based replication writeset. Null (the
  /// default) skips capture entirely, so statement-based mode pays nothing.
  Executor(Database* database, Session* session,
           const std::vector<Value>* params = nullptr,
           std::vector<RowOp>* capture = nullptr)
      : db_(database), session_(session), params_(params), capture_(capture) {}

  Result<ExecResult> Run(const Statement& stmt) {
    struct Visitor {
      Executor* e;
      Result<ExecResult> operator()(const CreateTableStatement& s) {
        return e->CreateTable(s);
      }
      Result<ExecResult> operator()(const CreateIndexStatement& s) {
        return e->CreateIndex(s);
      }
      Result<ExecResult> operator()(const DropTableStatement& s) {
        return e->DropTable(s);
      }
      Result<ExecResult> operator()(const TruncateStatement& s) {
        return e->Truncate(s);
      }
      Result<ExecResult> operator()(const InsertStatement& s) {
        return e->Insert(s);
      }
      Result<ExecResult> operator()(const SelectStatement& s) {
        return e->Select(s);
      }
      Result<ExecResult> operator()(const UpdateStatement& s) {
        return e->Update(s);
      }
      Result<ExecResult> operator()(const DeleteStatement& s) {
        return e->Delete(s);
      }
      Result<ExecResult> operator()(const BeginStatement&) {
        return Status::Internal("txn control reached executor");
      }
      Result<ExecResult> operator()(const CommitStatement&) {
        return Status::Internal("txn control reached executor");
      }
      Result<ExecResult> operator()(const RollbackStatement&) {
        return Status::Internal("txn control reached executor");
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

  Result<ExecResult> DropTable(const DropTableStatement& stmt) {
    auto it = db_->tables_.find(TableKey(stmt.table));
    if (it == db_->tables_.end()) {
      return Status::NotFound(
          StrFormat("no table named '%s'", stmt.table.c_str()));
    }
    db_->tables_.erase(it);
    return ExecResult{};
  }

  Result<ExecResult> Truncate(const TruncateStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    ExecResult result;
    result.rows_affected = static_cast<int64_t>(table->num_rows());
    table->Truncate();
    return result;
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
    session_->undo().push_back(
        UndoRecord{UndoRecord::Kind::kInsert, TableKey(stmt.table), id, {}});
    if (capture_ != nullptr) {
      // The after image is the row as *stored* (post type-coercion), fetched
      // back so a slave's direct apply reproduces it bit for bit.
      capture_->push_back(RowOp{RowOp::Kind::kInsert, TableKey(stmt.table),
                                {}, *table->Get(id)});
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
    // Fetch each matched row once; sorting and projection work on cached
    // pointers (Table::Get per comparison was the hot spot under load).
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

  Result<ExecResult> Update(const UpdateStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    const Schema& schema = table->schema();
    // Pre-resolve assignment targets.
    std::vector<size_t> target_cols;
    for (const auto& [col, expr] : stmt.assignments) {
      CLOUDDB_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
      target_cols.push_back(idx);
    }
    ExecResult result;
    CLOUDDB_ASSIGN_OR_RETURN(std::vector<RowId> matches,
                             CollectMatches(table, stmt.where.get(), &result));
    for (RowId id : matches) {
      const Row* old_row = table->Get(id);
      Row new_row = *old_row;
      for (size_t i = 0; i < stmt.assignments.size(); ++i) {
        // Assignments see the *old* row (SQL semantics).
        CLOUDDB_ASSIGN_OR_RETURN(
            Value v, EvaluateExpr(*stmt.assignments[i].second, &schema,
                                  old_row, db_->functions_, params_));
        new_row[target_cols[i]] = std::move(v);
      }
      Row saved = *old_row;
      CLOUDDB_RETURN_IF_ERROR(table->Update(id, std::move(new_row)));
      if (capture_ != nullptr) {
        capture_->push_back(RowOp{RowOp::Kind::kUpdate, TableKey(stmt.table),
                                  saved, *table->Get(id)});
      }
      session_->undo().push_back(UndoRecord{UndoRecord::Kind::kUpdate,
                                            TableKey(stmt.table), id,
                                            std::move(saved)});
      ++result.rows_affected;
    }
    return result;
  }

  Result<ExecResult> Delete(const DeleteStatement& stmt) {
    CLOUDDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(stmt.table));
    ExecResult result;
    CLOUDDB_ASSIGN_OR_RETURN(std::vector<RowId> matches,
                             CollectMatches(table, stmt.where.get(), &result));
    for (RowId id : matches) {
      Row saved = *table->Get(id);
      CLOUDDB_RETURN_IF_ERROR(table->Delete(id));
      if (capture_ != nullptr) {
        capture_->push_back(RowOp{RowOp::Kind::kDelete, TableKey(stmt.table),
                                  saved, {}});
      }
      session_->undo().push_back(UndoRecord{UndoRecord::Kind::kDelete,
                                            TableKey(stmt.table), id,
                                            std::move(saved)});
      ++result.rows_affected;
    }
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
  Result<std::vector<RowId>> CollectMatches(
      Table* table, const Expr* where, ExecResult* meta,
      int64_t limit_hint = -1, size_t order_col = SIZE_MAX,
      bool order_desc = false) {
    const Schema& schema = table->schema();
    std::vector<Constraint> constraints;
    bool exhaustive = true;  // every WHERE leaf became a constraint
    if (where != nullptr) {
      CLOUDDB_RETURN_IF_ERROR(
          ExtractConstraints(*where, schema, &constraints, &exhaustive));
    }
    // Predicate shape: the ordered (op, column) pairs of the extracted
    // constraints. Values are excluded on purpose — NULL-valued comparisons
    // were already dropped by ExtractConstraints, and everything
    // value-dependent (bounds, subsumption) is recomputed below.
    std::string shape;
    if (where == nullptr) {
      shape = "-";
    } else {
      shape.reserve(constraints.size() * 4);
      for (const Constraint& c : constraints) {
        shape += static_cast<char>('a' + static_cast<int>(c.op));
        shape += std::to_string(c.column);
        shape += ';';
      }
    }
    // Access-path selection: PK equality, then any indexed equality, then an
    // indexed range, then full scan. The decision depends only on the shape
    // and the table's index set, so it is memoized per shape (the memo is
    // cleared when an index is added).
    auto pk = schema.primary_key_index();
    const Constraint* chosen_eq = nullptr;
    size_t range_col = SIZE_MAX;
    PlanHint local;
    const PlanHint* hint = table->FindPlanHint(shape);
    if (hint != nullptr) {
      switch (hint->kind) {
        case AccessPathKind::kPkEq:
        case AccessPathKind::kIndexEq:
          chosen_eq = &constraints[hint->chosen];
          break;
        case AccessPathKind::kIndexRange:
          range_col = hint->chosen;
          break;
        case AccessPathKind::kTableScan:
          break;
      }
    } else {
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
      if (chosen_eq != nullptr) {
        bool is_pk = pk.has_value() && chosen_eq->column == *pk;
        local.kind = is_pk ? AccessPathKind::kPkEq : AccessPathKind::kIndexEq;
        local.chosen = static_cast<size_t>(chosen_eq - constraints.data());
        local.plan =
            StrFormat(is_pk ? "pk_eq(%s)" : "index_eq(%s)",
                      schema.columns()[chosen_eq->column].name.c_str());
        local.ordered_by = schema.columns()[chosen_eq->column].name;
      } else if (range_col != SIZE_MAX) {
        local.kind = AccessPathKind::kIndexRange;
        local.chosen = range_col;
        local.plan = StrFormat("index_range(%s)",
                               schema.columns()[range_col].name.c_str());
        local.ordered_by = schema.columns()[range_col].name;
      } else {
        local.kind = AccessPathKind::kTableScan;
        local.plan = "table_scan";
      }
      table->MemoizePlanHint(shape, local);
      hint = &local;
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
      meta->plan = hint->plan;
      meta->scan_ordered_by = hint->ordered_by;
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
      meta->plan = hint->plan;
      meta->scan_ordered_by = hint->ordered_by;
      CLOUDDB_RETURN_IF_ERROR(
          table->ScanIndex(range_col, lo, lo_inc, hi, hi_inc, [&](RowId id) {
            candidates.push_back(id);
            return keep_scanning(candidates);
          }));
    } else {
      meta->plan = hint->plan;
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
  Session* session_;
  const std::vector<Value>* params_;  // null unless running a cached template
  std::vector<RowOp>* capture_;       // row-based writeset sink or null
};

Database::Database(DatabaseOptions options)
    : options_(std::move(options)), functions_(options_.now_micros) {
  autocommit_session_ = std::make_unique<Session>(0);
}

std::unique_ptr<Session> Database::CreateSession() {
  return std::make_unique<Session>(next_session_id_++);
}

Result<ExecResult> Database::Execute(const std::string& sql,
                                     Session* session) {
  CLOUDDB_ASSIGN_OR_RETURN(CompiledSql compiled, Compile(sql));
  return Execute(compiled, sql, session);
}

Result<CompiledSql> Database::Compile(const std::string& sql) {
  return CompileSql(options_.statement_cache ? &statement_cache_ : nullptr,
                    sql);
}

Result<ExecResult> Database::Execute(const CompiledSql& compiled,
                                     const std::string& sql_text,
                                     Session* session) {
  const Statement& stmt = compiled.statement();
  if (session == nullptr) session = autocommit_session_.get();

  // Transaction control.
  if (std::holds_alternative<BeginStatement>(stmt)) {
    if (session->in_explicit_transaction()) {
      return Status::FailedPrecondition("transaction already open");
    }
    session->BeginExplicit();
    return ExecResult{};
  }
  if (std::holds_alternative<CommitStatement>(stmt)) {
    CommitSession(session);  // COMMIT outside a transaction is a no-op
    return ExecResult{};
  }
  if (std::holds_alternative<RollbackStatement>(stmt)) {
    RollbackSession(session);
    return ExecResult{};
  }

  // DDL implicitly commits any open transaction (MySQL semantics) and is
  // itself not transactional.
  if (IsDdl(stmt) && session->in_explicit_transaction()) {
    CommitSession(session);
  }

  bool is_write = IsWriteStatement(stmt);
  std::string lock_key = TableKey(TargetTable(stmt));
  Status lock_status =
      is_write ? lock_manager_.AcquireWrite(session->id(), lock_key)
               : lock_manager_.AcquireRead(session->id(), lock_key);
  if (!lock_status.ok()) {
    // A lock conflict aborts the whole transaction (no-wait policy).
    RollbackSession(session);
    return lock_status;
  }

  // Row-based capture: only statements that will reach the binlog capture
  // row images, and only when the coverage rule admits them (no DDL, no
  // function calls — see StatementHasFunctionCall).
  bool binlog_active = options_.enable_binlog && !binlog_suppressed_;
  bool row_capture = options_.row_based_repl && binlog_active && is_write &&
                     !IsDdl(stmt) && !StatementHasFunctionCall(stmt);
  std::vector<RowOp> captured_ops;
  Executor executor(this, session, compiled.params(),
                    row_capture ? &captured_ops : nullptr);
  Result<ExecResult> result = executor.Run(stmt);
  if (!result.ok()) {
    RollbackSession(session);
    return result;
  }
  // DDL changed the catalog: cached templates (and the plan hints resolved
  // through them) must not survive it.
  if (IsDdl(stmt)) statement_cache_.Invalidate();
  if (is_write) {
    session->pending_binlog().push_back(sql_text);
    if (options_.row_based_repl && binlog_active) {
      session->pending_writesets().push_back(
          StatementWriteset{row_capture, std::move(captured_ops)});
    }
  }
  if (!session->in_explicit_transaction()) CommitSession(session);
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

void Database::CommitSession(Session* session) {
  if (options_.enable_binlog && !binlog_suppressed_ &&
      !session->pending_binlog().empty()) {
    int64_t now =
        options_.now_micros ? options_.now_micros() : 0;
    // A full set of writesets (one per statement) makes this a row-based
    // event. A partial set — the toggle flipped mid-transaction — is
    // discarded: the event falls back to statement-only, which is always
    // correct to apply.
    if (session->pending_writesets().size() ==
        session->pending_binlog().size()) {
      binlog_.Append(std::move(session->pending_binlog()),
                     std::move(session->pending_writesets()), now);
    } else {
      binlog_.Append(std::move(session->pending_binlog()), now);
    }
  }
  lock_manager_.ReleaseAll(session->id());
  session->ClearTransactionState();
}

void Database::RollbackSession(Session* session) {
  auto& undo = session->undo();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Table* table = GetTable(it->table);
    assert(table != nullptr);
    Status st;
    switch (it->kind) {
      case UndoRecord::Kind::kInsert:
        st = table->Delete(it->row_id);
        break;
      case UndoRecord::Kind::kDelete:
        st = table->RestoreRow(it->row_id, std::move(it->old_row));
        break;
      case UndoRecord::Kind::kUpdate:
        st = table->Update(it->row_id, std::move(it->old_row));
        break;
    }
    assert(st.ok());
    (void)st;
  }
  lock_manager_.ReleaseAll(session->id());
  session->ClearTransactionState();
}

}  // namespace clouddb::db
