#pragma once

#include <string>
#include <vector>

#include "relstore/datum.h"
#include "relstore/schema.h"

namespace cpdb::relstore {

/// Declarative description of one secondary index (always a B+-tree) —
/// what Table::CreateIndex takes apart, and what checkpoints and the
/// write-ahead log persist so a recovered table rebuilds the same access
/// paths. Lives here (not table.h) so the journal interface below can
/// describe index DDL without depending on Table.
struct IndexDef {
  std::string name;
  std::vector<int> columns;  ///< key columns, by schema position
  bool unique = false;
};

/// Observer of all durable state changes inside a Database — the seam the
/// storage/ subsystem hangs off. A Table (and its owning Database, for
/// DDL) calls exactly one Note* per successful logical mutation, after the
/// in-memory structures are updated; the attached implementation stages
/// them and seals everything since the last barrier into one write-ahead
/// log record on Database::Sync() (group commit).
///
/// Deletes are journalled by full row image, not Rid: checkpoints restore
/// each table with one InsertBatch into the empty table, which repacks the
/// heap, so Rids are not stable across recovery. Replaying "delete one row
/// equal to R" reproduces the logical state exactly (identical rows are
/// interchangeable).
///
/// Note* must not fail and must not re-enter the table; implementations
/// only buffer. In-memory databases have no journal attached and pay a
/// single null-pointer test per mutation.
class Journal {
 public:
  virtual ~Journal() = default;

  virtual void NoteCreateTable(const std::string& table,
                               const Schema& schema) = 0;
  virtual void NoteDropTable(const std::string& table) = 0;
  virtual void NoteCreateIndex(const std::string& table,
                               const IndexDef& def) = 0;
  virtual void NoteInsert(const std::string& table, const Row& row) = 0;
  virtual void NoteDelete(const std::string& table, const Row& row) = 0;
};

}  // namespace cpdb::relstore
