#include "db/vec_agg.h"

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "db/value.h"
#include "db/vec_chunk.h"

namespace clouddb::db {

void VecAccumulateSum(const ColumnVector& col, const uint32_t* sel, size_t n,
                      VecAggState* state) {
  // The executor rejects SUM/AVG over declared-string columns before any
  // accumulation, so only numeric column types reach this kernel.
  switch (col.type) {
    case ValueType::kInt64: {
      int64_t sum = 0;
      int64_t count = 0;
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        if (ColumnLaneIsNull(col, lane)) continue;
        sum += col.i64[lane];
        ++count;
      }
      state->int_sum += sum;
      state->count += count;
      break;
    }
    case ValueType::kDouble: {
      // Left-to-right accumulation, same order as the scalar loop, so the
      // floating-point result is bit-identical.
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        if (ColumnLaneIsNull(col, lane)) continue;
        state->dbl_sum += col.f64[lane];
        ++state->count;
      }
      break;
    }
    default:
      break;
  }
}

void VecAccumulateMinMax(const ColumnVector& col, const Row* const* rows,
                         const uint32_t* sel, size_t n, size_t column,
                         bool is_max, VecAggState* state) {
  // sel entries are row indexes < the chunk's row count, so rows[lane] below
  // is in bounds.
  bool has = state->best_row != nullptr;
  switch (col.type) {
    case ValueType::kInt64: {
      int64_t best = has ? (*state->best_row)[column].AsInt64() : 0;
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        if (ColumnLaneIsNull(col, lane)) continue;
        ++state->count;
        int64_t v = col.i64[lane];
        if (!has || (is_max ? v > best : v < best)) {
          best = v;
          state->best_row = rows[lane];
          has = true;
        }
      }
      break;
    }
    case ValueType::kDouble: {
      double best = has ? (*state->best_row)[column].AsDouble() : 0.0;
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        if (ColumnLaneIsNull(col, lane)) continue;
        ++state->count;
        double v = col.f64[lane];
        // Strict `<`/`>` matches Value::Compare's three-way on doubles
        // (NaN compares equal there, i.e. never a strict improvement).
        if (!has || (is_max ? v > best : v < best)) {
          best = v;
          state->best_row = rows[lane];
          has = true;
        }
      }
      break;
    }
    case ValueType::kString: {
      std::string_view best =
          has ? std::string_view((*state->best_row)[column].AsString())
              : std::string_view();
      for (size_t j = 0; j < n; ++j) {
        uint32_t lane = sel[j];
        if (ColumnLaneIsNull(col, lane)) continue;
        ++state->count;
        std::string_view v = col.str[lane];
        int c = v.compare(best);
        if (!has || (is_max ? c > 0 : c < 0)) {
          best = v;
          state->best_row = rows[lane];
          has = true;
        }
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace clouddb::db
