#include "storage/log_format.h"

#include <limits>

#include "util/crc32.h"

namespace cpdb::storage {

using relstore::Column;
using relstore::ColumnType;
using relstore::Row;
using relstore::Schema;

void EncodeSchema(const Schema& schema, std::string* out) {
  PutVarint64(out, schema.NumColumns());
  for (const Column& col : schema.columns()) {
    PutLengthPrefixed(out, col.name);
    out->push_back(static_cast<char>(col.type));
    out->push_back(col.nullable ? 1 : 0);
  }
}

bool DecodeSchema(const std::string& in, size_t* pos, Schema* out) {
  uint64_t n;
  if (!GetVarint64(in, pos, &n)) return false;
  if (n > in.size() - *pos) return false;  // every column is >= 1 byte
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Column col;
    if (!GetLengthPrefixed(in, pos, &col.name)) return false;
    if (*pos + 2 > in.size()) return false;
    uint8_t type = static_cast<uint8_t>(in[*pos]);
    if (type > static_cast<uint8_t>(ColumnType::kString)) return false;
    col.type = static_cast<ColumnType>(type);
    col.nullable = in[*pos + 1] != 0;
    *pos += 2;
    columns.push_back(std::move(col));
  }
  *out = Schema(std::move(columns));
  return true;
}

void EncodeIndexDef(const relstore::IndexDef& def, std::string* out) {
  PutLengthPrefixed(out, def.name);
  PutVarint64(out, def.columns.size());
  for (int c : def.columns) PutVarint64(out, static_cast<uint64_t>(c));
  out->push_back(0);  // kind: B+-tree
  out->push_back(def.unique ? 1 : 0);
}

bool DecodeIndexDef(const std::string& in, size_t* pos,
                    relstore::IndexDef* out) {
  if (!GetLengthPrefixed(in, pos, &out->name)) return false;
  uint64_t n;
  if (!GetVarint64(in, pos, &n)) return false;
  if (n > in.size() - *pos) return false;  // every column is >= 1 byte
  out->columns.clear();
  out->columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t c;
    if (!GetVarint64(in, pos, &c)) return false;
    if (c > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return false;
    }
    out->columns.push_back(static_cast<int>(c));
  }
  if (*pos + 2 > in.size()) return false;
  if (static_cast<uint8_t>(in[*pos]) > 1) return false;  // 0 btree, 1 hash
  out->unique = in[*pos + 1] != 0;
  *pos += 2;
  return true;
}

void CommitRecord::EncodeTo(std::string* out) const {
  PutVarint64(out, seq);
  PutVarint64(out, writes.size());
  for (const LogWrite& w : writes) {
    out->push_back(static_cast<char>(w.op));
    PutLengthPrefixed(out, w.table);
    switch (w.op) {
      case LogOp::kInsert:
      case LogOp::kDelete:
        relstore::EncodeRow(w.row, out);
        break;
      case LogOp::kCreateTable:
        EncodeSchema(w.schema, out);
        break;
      case LogOp::kCreateIndex:
        EncodeIndexDef(w.index, out);
        break;
      case LogOp::kDropTable:
        break;
    }
  }
}

bool CommitRecord::DecodeFrom(const std::string& in, CommitRecord* out) {
  size_t pos = 0;
  out->writes.clear();
  if (!GetVarint64(in, &pos, &out->seq)) return false;
  uint64_t n;
  if (!GetVarint64(in, &pos, &n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    if (pos >= in.size()) return false;
    LogWrite w;
    uint8_t op = static_cast<uint8_t>(in[pos++]);
    if (op < static_cast<uint8_t>(LogOp::kCreateTable) ||
        op > static_cast<uint8_t>(LogOp::kDelete)) {
      return false;
    }
    w.op = static_cast<LogOp>(op);
    if (!GetLengthPrefixed(in, &pos, &w.table)) return false;
    switch (w.op) {
      case LogOp::kInsert:
      case LogOp::kDelete:
        if (!relstore::DecodeRow(in, &pos, &w.row)) return false;
        break;
      case LogOp::kCreateTable:
        if (!DecodeSchema(in, &pos, &w.schema)) return false;
        break;
      case LogOp::kCreateIndex:
        if (!DecodeIndexDef(in, &pos, &w.index)) return false;
        break;
      case LogOp::kDropTable:
        break;
    }
    out->writes.push_back(std::move(w));
  }
  return pos == in.size();  // a checksummed payload must parse exactly
}

}  // namespace cpdb::storage
