#include "db/value.h"

#include "common/str_util.h"

namespace clouddb::db {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
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
  // Compare() has taken two integers, so equal types here are two NULLs
  // (equal for ordering purposes) or two strings.
  ValueType ta = a.type();
  ValueType tb = b.type();
  if (ta != tb) return ta < tb ? -1 : 1;
  if (ta == ValueType::kNull) return 0;
  int c = a.AsString().compare(b.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
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
