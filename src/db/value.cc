#include "db/value.h"

#include "common/str_util.h"

namespace clouddb::db {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "TEXT";
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return StrFormat("%lld", static_cast<long long>(AsInt64()));
    case ValueType::kDouble: {
      // %.17g round-trips IEEE-754 doubles exactly.
      std::string s = StrFormat("%.17g", AsDouble());
      // Ensure the literal re-lexes as a double, not an integer.
      if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
      return s;
    }
    case ValueType::kString: {
      std::string out = "'";
      for (char c : AsString()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  return "NULL";
}

int Value::CompareSlow(const Value& a, const Value& b) {
  ValueType ta = a.type();
  ValueType tb = b.type();
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt64:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 0;
  };
  int ra = rank(ta);
  int rb = rank(tb);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
        int64_t x = a.AsInt64();
        int64_t y = b.AsInt64();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      double x = ta == ValueType::kInt64 ? static_cast<double>(a.AsInt64())
                                         : a.AsDouble();
      double y = tb == ValueType::kInt64 ? static_cast<double>(b.AsInt64())
                                         : b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

uint64_t Value::Hash() const {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
  };
  switch (type()) {
    case ValueType::kNull:
      return 0xDEADBEEFull;
    case ValueType::kInt64:
      return mix(1, static_cast<uint64_t>(AsInt64()));
    case ValueType::kDouble: {
      // Hash doubles through their numeric value so 1 and 1.0 collide
      // (they compare equal).
      double d = AsDouble();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return mix(1, static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return mix(2, bits);
    }
    case ValueType::kString: {
      uint64_t h = 1469598103934665603ull;  // FNV-1a
      for (char c : AsString()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      return mix(3, h);
    }
  }
  return 0;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToSqlLiteral();
  }
  out += ")";
  return out;
}

}  // namespace clouddb::db
