#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace cpdb::relstore {

/// SQL-style column types supported by the mini relational engine.
enum class ColumnType {
  kInt64,
  kDouble,
  kString,
};

const char* ColumnTypeName(ColumnType t);

/// A single relational value (possibly NULL). Ordering places NULL first,
/// then compares by value; cross-type comparison is by type index, which
/// only matters for heterogeneous composite keys and is deterministic.
class Datum {
 public:
  Datum() : v_(std::monostate{}) {}
  Datum(int64_t v) : v_(v) {}                   // NOLINT
  Datum(double v) : v_(v) {}                    // NOLINT
  Datum(std::string v) : v_(std::move(v)) {}    // NOLINT
  Datum(const char* v) : v_(std::string(v)) {}  // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  std::string ToString() const;

  bool operator==(const Datum& o) const { return v_ == o.v_; }
  bool operator!=(const Datum& o) const { return !(*this == o); }
  bool operator<(const Datum& o) const { return v_ < o.v_; }
  bool operator<=(const Datum& o) const { return !(o < *this); }

  /// Appends a length-prefixed binary encoding to `out`.
  void EncodeTo(std::string* out) const;

  /// Decodes one datum from `in` starting at *pos; advances *pos.
  /// Returns false on malformed input.
  static bool DecodeFrom(const std::string& in, size_t* pos, Datum* out);

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

std::ostream& operator<<(std::ostream& os, const Datum& d);

/// A tuple of datums.
using Row = std::vector<Datum>;

std::string RowToString(const Row& row);

/// Lexicographic row comparison.
bool RowLess(const Row& a, const Row& b);

/// Serialises a full row (column count + datums).
void EncodeRow(const Row& row, std::string* out);
bool DecodeRow(const std::string& in, size_t* pos, Row* out);

}  // namespace cpdb::relstore
