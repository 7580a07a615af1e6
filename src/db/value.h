#ifndef CLOUDDB_DB_VALUE_H_
#define CLOUDDB_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace clouddb::db {

/// Column data types supported by the engine, in Value's ordering.
enum class ValueType {
  kNull,
  kInt64,
  kString,
};

const char* ValueTypeToString(ValueType t);

/// A single SQL value: NULL, 64-bit integer, or string.
/// Ordered: NULL < integers < strings.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  /// There is no floating-point type: Value(2.5) must not become Value(2).
  explicit Value(double) = delete;
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  // Inline: this is the innermost call of every index comparison.
  ValueType type() const {
    switch (data_.index()) {
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kString;
      default:
        return ValueType::kNull;
    }
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; must match `type()`.
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// SQL-literal rendering: NULL, -42, 'escaped''string'. Round-trips
  /// through the lexer (a negative number lexes as one signed literal).
  std::string ToSqlLiteral() const;

  /// Total ordering across types (see class comment). NULLs compare equal
  /// here (needed for index keys); the executor, for which a NULL matches no
  /// comparison, checks for NULL before comparing.
  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Value& a, const Value& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Value& a, const Value& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const Value& a, const Value& b) {
    return Compare(a, b) >= 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }

  /// -1 / 0 / +1 three-way comparison. Inline for the same reason as
  /// type(): B+Tree node searches binary-search through Value keys, so this
  /// runs a dozen times per index lookup.
  static int Compare(const Value& a, const Value& b) {
    ValueType ta = a.type();
    ValueType tb = b.type();
    if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
      int64_t x = a.AsInt64();
      int64_t y = b.AsInt64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return CompareSlow(a, b);
  }

  /// Stable 64-bit hash (for hash joins / duplicate detection in tests).
  uint64_t Hash() const;

 private:
  /// Mixed-type and string orderings (see class comment).
  static int CompareSlow(const Value& a, const Value& b);

  std::variant<std::monostate, int64_t, std::string> data_;
};

/// A tuple of values; the engine's row representation.
using Row = std::vector<Value>;

/// Renders a row as "(v1, v2, ...)" using SQL literals.
std::string RowToString(const Row& row);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_VALUE_H_
