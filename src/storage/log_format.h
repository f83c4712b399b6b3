#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relstore/datum.h"
#include "relstore/journal.h"
#include "relstore/schema.h"

namespace cpdb::storage {

/// One journalled state change inside a commit record. DDL (create/drop
/// table, create index) is logged alongside row writes so a log replayed
/// into an empty Database rebuilds schemas and access paths before the
/// rows that need them — recovery with no checkpoint on disk starts from
/// nothing but the log.
enum class LogOp : uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kCreateIndex = 3,
  kInsert = 4,
  kDelete = 5,
};

/// One Note* call, serialized. `row` carries the full row image for
/// kInsert/kDelete; `schema` the table schema for kCreateTable; `index`
/// the definition for kCreateIndex.
struct LogWrite {
  LogOp op = LogOp::kInsert;
  std::string table;
  relstore::Row row;
  relstore::Schema schema;
  relstore::IndexDef index;
};

/// One committed transaction — the unit the write-ahead log appends,
/// checksums, and fsyncs. `seq` is the database's monotonically
/// increasing commit sequence; recovery replays records in file order and
/// skips any with seq <= the checkpoint's sequence (the crash window
/// between writing a checkpoint and truncating the log).
struct CommitRecord {
  uint64_t seq = 0;
  std::vector<LogWrite> writes;

  void EncodeTo(std::string* out) const;
  /// Strict whole-payload decode; false on any trailing or missing bytes.
  static bool DecodeFrom(const std::string& in, CommitRecord* out);
};

// Schema / index-definition codecs, shared by the log and the checkpoint
// files so the two formats stay byte-identical.
void EncodeSchema(const relstore::Schema& schema, std::string* out);
bool DecodeSchema(const std::string& in, size_t* pos,
                  relstore::Schema* out);
/// An index definition is name(lp) | n_columns | columns | kind | unique.
/// The kind byte is always written as 0 (B+-tree); stores from before
/// every index was a B+-tree may carry 1 (hash), which decodes as a
/// B+-tree too. Any other kind byte, or a column past the int range, is
/// malformed.
void EncodeIndexDef(const relstore::IndexDef& def, std::string* out);
bool DecodeIndexDef(const std::string& in, size_t* pos,
                    relstore::IndexDef* out);

}  // namespace cpdb::storage
