#include "db/vec_expr.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/str_util.h"
#include "db/schema.h"
#include "db/sql_ast.h"
#include "db/value.h"
#include "db/vec_arena.h"
#include "db/vec_chunk.h"

namespace clouddb::db {

namespace {

// Kleene truth lanes: 0 = false, 1 = unknown, 2 = true.
constexpr uint8_t kFalse = 0;
constexpr uint8_t kUnknown = 1;
constexpr uint8_t kTrue = 2;

bool IsComparisonOp(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

VecCmp ToVecCmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return VecCmp::kEq;
    case BinaryOp::kNe:
      return VecCmp::kNe;
    case BinaryOp::kLt:
      return VecCmp::kLt;
    case BinaryOp::kLe:
      return VecCmp::kLe;
    case BinaryOp::kGt:
      return VecCmp::kGt;
    default:
      return VecCmp::kGe;
  }
}

/// Mirror for `const op column`: `5 < col` means `col > 5`.
VecCmp FlipCmp(VecCmp cmp) {
  switch (cmp) {
    case VecCmp::kLt:
      return VecCmp::kGt;
    case VecCmp::kLe:
      return VecCmp::kGe;
    case VecCmp::kGt:
      return VecCmp::kLt;
    case VecCmp::kGe:
      return VecCmp::kLe;
    default:
      return cmp;  // kEq / kNe are symmetric
  }
}

bool IsConstOperand(const Expr& e) {
  return e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kParameter;
}

/// The operand under a unary minus, or null. The parser renders `-x` as
/// `0 - x`, so the shape is kSub with an int64-zero literal on the left. A
/// literal operand must already be numeric (a folded `-'a'` would need the
/// scalar path's string-to-double conversion and its error text); a
/// parameter operand is checked at bind time instead, when its value is
/// known.
const Expr* NegatedConstOperand(const Expr& e) {
  if (e.kind != Expr::Kind::kBinary || e.op != BinaryOp::kSub) return nullptr;
  if (e.lhs->kind != Expr::Kind::kLiteral ||
      e.lhs->literal.type() != ValueType::kInt64 ||
      e.lhs->literal.AsInt64() != 0) {
    return nullptr;
  }
  if (e.rhs->kind == Expr::Kind::kLiteral) {
    ValueType t = e.rhs->literal.type();
    if (t != ValueType::kInt64 && t != ValueType::kDouble) return nullptr;
    return e.rhs.get();
  }
  if (e.rhs->kind == Expr::Kind::kParameter) return e.rhs.get();
  return nullptr;
}

bool IsFoldableConst(const Expr& e) {
  return IsConstOperand(e) || NegatedConstOperand(e) != nullptr;
}

// Column and constant slot indexes fit uint16_t: CompileNode disengages
// once either count reaches 0xFFFF.
uint16_t InternColumn(VecProgram* p, std::string_view name) {
  for (size_t i = 0; i < p->columns.size(); ++i) {
    if (p->columns[i] == name) return static_cast<uint16_t>(i);
  }
  p->columns.push_back(name);
  return static_cast<uint16_t>(p->columns.size() - 1);
}

uint16_t InternConst(VecProgram* p, const Expr& e) {
  VecProgram::ConstRef ref;
  const Expr* operand = &e;
  if (const Expr* negated = NegatedConstOperand(e)) {
    operand = negated;
    ref.negate = true;
  }
  if (operand->kind == Expr::Kind::kLiteral) {
    ref.literal = &operand->literal;
  } else {
    ref.param = static_cast<uint32_t>(operand->param_index);
  }
  p->consts.push_back(ref);
  return static_cast<uint16_t>(p->consts.size() - 1);
}

/// Compiles one node to postfix, tracking stack depth for max_stack.
/// Returns false on any uncovered shape (whole-program disengage).
bool CompileNode(const Expr& e, VecProgram* p, std::vector<VecOp>* ops,
                 size_t* depth) {
  // Slot operands are uint16_t; a predicate big enough to overflow them
  // cannot realistically parse, but guard anyway.
  if (p->columns.size() >= 0xFFFF || p->consts.size() >= 0xFFFF) return false;
  switch (e.kind) {
    case Expr::Kind::kBinary: {
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
        if (!CompileNode(*e.lhs, p, ops, depth)) return false;
        if (!CompileNode(*e.rhs, p, ops, depth)) return false;
        VecOp op;
        op.code = e.op == BinaryOp::kAnd ? VecOp::Code::kAnd : VecOp::Code::kOr;
        ops->push_back(op);
        --*depth;
        return true;
      }
      if (!IsComparisonOp(e.op)) return false;
      VecOp op;
      op.code = VecOp::Code::kCmpColConst;
      if (e.lhs->kind == Expr::Kind::kColumnRef && IsFoldableConst(*e.rhs)) {
        op.cmp = ToVecCmp(e.op);
        op.col = InternColumn(p, e.lhs->column);
        op.arg = InternConst(p, *e.rhs);
      } else if (e.rhs->kind == Expr::Kind::kColumnRef &&
                 IsFoldableConst(*e.lhs)) {
        op.cmp = FlipCmp(ToVecCmp(e.op));
        op.col = InternColumn(p, e.rhs->column);
        op.arg = InternConst(p, *e.lhs);
      } else {
        return false;  // column-to-column, arithmetic, function call, ...
      }
      ops->push_back(op);
      ++*depth;
      if (*depth > p->max_stack) p->max_stack = *depth;
      return true;
    }
    case Expr::Kind::kIsNull: {
      if (e.lhs->kind != Expr::Kind::kColumnRef) return false;
      VecOp op;
      op.code = VecOp::Code::kIsNullCol;
      op.negated = e.is_null_negated;
      op.col = InternColumn(p, e.lhs->column);
      ops->push_back(op);
      ++*depth;
      if (*depth > p->max_stack) p->max_stack = *depth;
      return true;
    }
    case Expr::Kind::kNot: {
      if (!CompileNode(*e.lhs, p, ops, depth)) return false;
      VecOp op;
      op.code = VecOp::Code::kNot;
      ops->push_back(op);
      return true;
    }
    default:
      return false;
  }
}

/// Splits the predicate at its top-level ANDs. Safe because compiled
/// conjuncts can never error (coverage rule) and three-valued AND is true
/// iff every operand is true — filtering by each conjunct in turn yields
/// exactly the rows the full AND accepts.
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == Expr::Kind::kBinary && e.op == BinaryOp::kAnd) {
    CollectConjuncts(*e.lhs, out);
    CollectConjuncts(*e.rhs, out);
    return;
  }
  out->push_back(&e);
}

inline uint8_t CmpTruth(VecCmp cmp, int c) {
  bool r = false;
  switch (cmp) {
    case VecCmp::kEq:
      r = c == 0;
      break;
    case VecCmp::kNe:
      r = c != 0;
      break;
    case VecCmp::kLt:
      r = c < 0;
      break;
    case VecCmp::kLe:
      r = c <= 0;
      break;
    case VecCmp::kGt:
      r = c > 0;
      break;
    case VecCmp::kGe:
      r = c >= 0;
      break;
  }
  return r ? kTrue : kFalse;
}

/// Three-way compares matching Value::Compare exactly (including the
/// NaN-compares-equal behavior of the double path).
inline int ThreeWayI64(int64_t x, int64_t y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}
inline int ThreeWayF64(double x, double y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}
inline int ThreeWayStr(std::string_view x, std::string_view y) {
  int c = x.compare(y);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// cmp(column lane, constant) for the selected lanes. NULL on either side
/// yields unknown; otherwise the kernel is specialized on the (column type,
/// constant type) pair, with cross-kind pairs reduced to a constant
/// three-way result from Value::Compare's kind ranks (numerics < strings).
void EvalCmpColConst(const ColumnVector& col, const Value& k, VecCmp cmp,
                     const uint32_t* sel, size_t n, uint8_t* t) {
  ValueType kt = k.type();
  if (kt == ValueType::kNull) {
    for (size_t j = 0; j < n; ++j) t[j] = kUnknown;
    return;
  }
  switch (col.type) {
    case ValueType::kInt64: {
      if (kt == ValueType::kInt64) {
        int64_t kv = k.AsInt64();
        for (size_t j = 0; j < n; ++j) {
          uint32_t lane = sel[j];
          t[j] = ColumnLaneIsNull(col, lane)
                     ? kUnknown
                     : CmpTruth(cmp, ThreeWayI64(col.i64[lane], kv));
        }
      } else if (kt == ValueType::kDouble) {
        double kv = k.AsDouble();
        for (size_t j = 0; j < n; ++j) {
          uint32_t lane = sel[j];
          t[j] = ColumnLaneIsNull(col, lane)
                     ? kUnknown
                     : CmpTruth(cmp, ThreeWayF64(
                                         static_cast<double>(col.i64[lane]),
                                         kv));
        }
      } else {
        uint8_t r = CmpTruth(cmp, -1);  // numeric < string for all lanes
        for (size_t j = 0; j < n; ++j) {
          t[j] = ColumnLaneIsNull(col, sel[j]) ? kUnknown : r;
        }
      }
      break;
    }
    case ValueType::kDouble: {
      if (kt == ValueType::kString) {
        uint8_t r = CmpTruth(cmp, -1);
        for (size_t j = 0; j < n; ++j) {
          t[j] = ColumnLaneIsNull(col, sel[j]) ? kUnknown : r;
        }
        break;
      }
      double kv = kt == ValueType::kInt64 ? static_cast<double>(k.AsInt64())
                                          : k.AsDouble();
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        t[j] = ColumnLaneIsNull(col, lane)
                   ? kUnknown
                   : CmpTruth(cmp, ThreeWayF64(col.f64[lane], kv));
      }
      break;
    }
    case ValueType::kString: {
      if (kt != ValueType::kString) {
        uint8_t r = CmpTruth(cmp, 1);  // string > numeric for all lanes
        for (size_t j = 0; j < n; ++j) {
          t[j] = ColumnLaneIsNull(col, sel[j]) ? kUnknown : r;
        }
        break;
      }
      std::string_view kv(k.AsString());
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        t[j] = ColumnLaneIsNull(col, lane)
                   ? kUnknown
                   : CmpTruth(cmp, ThreeWayStr(col.str[lane], kv));
      }
      break;
    }
    case ValueType::kNull:
      for (size_t j = 0; j < n; ++j) t[j] = kUnknown;
      break;
  }
}

void EvalIsNull(const ColumnVector& col, bool negated, const uint32_t* sel,
                size_t n, uint8_t* t) {
  uint8_t when_null = negated ? kFalse : kTrue;
  uint8_t when_set = negated ? kTrue : kFalse;
  for (size_t j = 0; j < n; ++j) {
    t[j] = ColumnLaneIsNull(col, sel[j]) ? when_null : when_set;
  }
}

}  // namespace

bool CompilePredicate(const Expr& where, VecProgram* out) {
  VecProgram p;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    std::vector<VecOp> ops;
    size_t depth = 0;
    if (!CompileNode(*c, &p, &ops, &depth)) return false;
    p.conjuncts.push_back(std::move(ops));
  }
  *out = std::move(p);
  return true;
}

bool BindProgram(const VecProgram& program, const Schema& schema,
                 const std::vector<Value>* params, VecBinding* out) {
  out->program = &program;
  out->col_index.clear();
  out->col_type.clear();
  out->consts.clear();
  const auto& cols = schema.columns();
  for (std::string_view name : program.columns) {
    size_t idx = cols.size();
    for (size_t i = 0; i < cols.size(); ++i) {
      if (EqualsIgnoreCase(cols[i].name, name)) {
        idx = i;
        break;
      }
    }
    if (idx == cols.size()) return false;
    out->col_index.push_back(static_cast<uint32_t>(idx));
    out->col_type.push_back(cols[idx].type);
  }
  out->owned.clear();
  out->owned.reserve(program.consts.size());
  for (const VecProgram::ConstRef& ref : program.consts) {
    const Value* v = ref.literal;
    if (v == nullptr) {
      if (params == nullptr || ref.param >= params->size()) return false;
      v = &(*params)[ref.param];
    }
    if (ref.negate) {
      // Fold `0 - v` exactly as the scalar arithmetic does: int64 stays
      // int64, everything else numeric goes through double. Non-numeric
      // values (a parameter bound to a string) refuse to bind so the
      // scalar path produces its usual conversion behavior.
      if (v->type() == ValueType::kInt64) {
        out->owned.push_back(Value(int64_t{0} - v->AsInt64()));
      } else if (v->type() == ValueType::kDouble) {
        out->owned.push_back(Value(0.0 - v->AsDouble()));
      } else {
        return false;
      }
      v = &out->owned.back();
    }
    out->consts.push_back(v);
  }
  return true;
}

size_t VecFilterChunk(const VecBinding& binding, const Row* const* rows,
                      size_t len, uint32_t* sel, VecArena* arena) {
  const VecProgram& p = *binding.program;
  assert(len <= kVecChunkSize);  // documented caller contract (vec_chunk.h)
  size_t ncols = p.columns.size();
  ColumnVector* cols = arena->AllocateArray<ColumnVector>(ncols);
  for (size_t i = 0; i < ncols; ++i) {
    cols[i] = MaterializeColumn(rows, len, binding.col_index[i],
                                binding.col_type[i], arena);
  }
  uint8_t** stack = arena->AllocateArray<uint8_t*>(p.max_stack);
  size_t n = len;
  for (size_t i = 0; i < len; ++i) sel[i] = static_cast<uint32_t>(i);
  for (const std::vector<VecOp>& conjunct : p.conjuncts) {
    if (n == 0) break;  // short-circuit: selection already empty
    size_t sp = 0;
    // Unchecked indexing rests on compile and bind invariants: BindProgram
    // resolved every column reference (op.col < ncols), and CompileNode emits
    // postfix from the expression tree and sizes the stack to its peak depth,
    // so a binary op sees sp >= 2, a unary op sp >= 1, and a finished
    // conjunct leaves exactly one mask.
    for (const VecOp& op : conjunct) {
      switch (op.code) {
        case VecOp::Code::kCmpColConst: {
          uint8_t* t = arena->AllocateArray<uint8_t>(n);
          EvalCmpColConst(cols[op.col], *binding.consts[op.arg], op.cmp, sel,
                          n, t);
          stack[sp++] = t;
          break;
        }
        case VecOp::Code::kIsNullCol: {
          uint8_t* t = arena->AllocateArray<uint8_t>(n);
          EvalIsNull(cols[op.col], op.negated, sel, n, t);
          stack[sp++] = t;
          break;
        }
        case VecOp::Code::kAnd: {
          uint8_t* b = stack[--sp];
          uint8_t* a = stack[sp - 1];
          for (size_t j = 0; j < n; ++j) {
            if (b[j] < a[j]) a[j] = b[j];
          }
          break;
        }
        case VecOp::Code::kOr: {
          uint8_t* b = stack[--sp];
          uint8_t* a = stack[sp - 1];
          for (size_t j = 0; j < n; ++j) {
            if (b[j] > a[j]) a[j] = b[j];
          }
          break;
        }
        case VecOp::Code::kNot: {
          uint8_t* a = stack[sp - 1];
          for (size_t j = 0; j < n; ++j) a[j] = kTrue - a[j];
          break;
        }
      }
    }
    const uint8_t* t = stack[sp - 1];
    size_t m = 0;
    for (size_t j = 0; j < n; ++j) {
      if (t[j] == kTrue) sel[m++] = sel[j];
    }
    n = m;
  }
  return n;
}

}  // namespace clouddb::db
