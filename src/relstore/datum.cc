#include "relstore/datum.h"

#include <cstring>
#include <sstream>

#include "util/crc32.h"

namespace cpdb::relstore {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
  }
  return "?";
}

std::string Datum::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream os;
    os << AsDouble();
    return os.str();
  }
  return AsString();
}

void Datum::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(v_.index()));
  if (is_int()) {
    char buf[8];
    int64_t v = AsInt();
    std::memcpy(buf, &v, 8);
    out->append(buf, 8);
  } else if (is_double()) {
    char buf[8];
    double v = AsDouble();
    std::memcpy(buf, &v, 8);
    out->append(buf, 8);
  } else if (is_string()) {
    PutFixed32(out, static_cast<uint32_t>(AsString().size()));
    out->append(AsString());
  }
}

bool Datum::DecodeFrom(const std::string& in, size_t* pos, Datum* out) {
  if (*pos >= in.size()) return false;
  uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  switch (tag) {
    case 0:
      *out = Datum();
      return true;
    case 1: {
      if (*pos + 8 > in.size()) return false;
      int64_t v;
      std::memcpy(&v, in.data() + *pos, 8);
      *pos += 8;
      *out = Datum(v);
      return true;
    }
    case 2: {
      if (*pos + 8 > in.size()) return false;
      double v;
      std::memcpy(&v, in.data() + *pos, 8);
      *pos += 8;
      *out = Datum(v);
      return true;
    }
    case 3: {
      uint32_t len;
      if (!GetFixed32(in, pos, &len)) return false;
      if (*pos + len > in.size()) return false;
      *out = Datum(in.substr(*pos, len));
      *pos += len;
      return true;
    }
    default:
      return false;
  }
}

std::ostream& operator<<(std::ostream& os, const Datum& d) {
  return os << d.ToString();
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

void EncodeRow(const Row& row, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(row.size()));
  for (const Datum& d : row) d.EncodeTo(out);
}

size_t EncodedRowSize(const Row& row) {
  size_t n = 4;  // column count
  for (const Datum& d : row) {
    n += 1;  // type tag
    if (d.is_int() || d.is_double()) n += 8;
    if (d.is_string()) n += 4 + d.AsString().size();
  }
  return n;
}

bool DecodeRow(const std::string& in, size_t* pos, Row* out) {
  uint32_t n;
  if (!GetFixed32(in, pos, &n)) return false;
  if (n > in.size() - *pos) return false;  // every datum is >= 1 byte
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Datum d;
    if (!Datum::DecodeFrom(in, pos, &d)) return false;
    out->push_back(std::move(d));
  }
  return true;
}

}  // namespace cpdb::relstore
