#pragma once

#include <algorithm>
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
/// then orders by type index (NULL, INT64, DOUBLE, STRING), then by value
/// with `<`; cross-type order only matters for heterogeneous composite
/// keys and is deterministic. Compare() is the three-way form of that
/// order. A NaN is neither less nor greater than any DOUBLE, so it sorts
/// level with every one: an index key must not hold it (the relational
/// target refuses NaN identifiers).
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

  /// Negative, zero or positive as this datum sorts before, level with or
  /// after `o` in the order operator< defines, at one value comparison.
  int Compare(const Datum& o) const {
    const size_t type = v_.index();
    if (type != o.v_.index()) return type < o.v_.index() ? -1 : 1;
    switch (type) {
      case 1: {
        const int64_t a = *std::get_if<int64_t>(&v_);
        const int64_t b = *std::get_if<int64_t>(&o.v_);
        return (a > b) - (a < b);
      }
      case 2: {
        const double a = *std::get_if<double>(&v_);
        const double b = *std::get_if<double>(&o.v_);
        return (a > b) - (a < b);
      }
      case 3:
        return std::get_if<std::string>(&v_)->compare(
            *std::get_if<std::string>(&o.v_));
      default:
        return 0;  // NULL and NULL
    }
  }

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

/// Three-way lexicographic row comparison, one Datum::Compare per column:
/// the first column that differs decides, and a proper prefix sorts
/// first. Inline because every B+-tree step runs it.
inline int CompareRows(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (const int c = a[i].Compare(b[i]); c != 0) return c;
  }
  return (a.size() > b.size()) - (a.size() < b.size());
}

/// Lexicographic row order, for sorts.
inline bool RowLess(const Row& a, const Row& b) {
  return CompareRows(a, b) < 0;
}

/// Serialises a full row (column count + datums).
void EncodeRow(const Row& row, std::string* out);
/// The number of bytes EncodeRow appends for `row`.
size_t EncodedRowSize(const Row& row);
bool DecodeRow(const std::string& in, size_t* pos, Row* out);

}  // namespace cpdb::relstore
