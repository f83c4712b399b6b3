#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relstore/cost_model.h"
#include "relstore/table.h"
#include "util/result.h"

namespace cpdb::storage {
class Durability;
}  // namespace cpdb::storage

namespace cpdb::relstore {

/// A named catalog of tables with an attached interaction cost model —
/// the stand-in for the MySQL server holding the provenance store (and,
/// wrapped, the OrganelleDB source).
///
/// The CostModel is *not* charged automatically by Table methods; callers
/// that model client/server traffic (the provenance stores) charge one
/// round trip per logical client call via cost(). This mirrors the paper's
/// accounting, where one SQL statement is one round trip regardless of how
/// many rows it carries.
///
/// Durability: a Database constructed directly is in-memory, exactly as
/// before. Open(name, dir) instead attaches a storage::Durability engine
/// rooted at `dir`: it first recovers the on-disk state (checkpoint, then
/// the write-ahead log tail), then journals every subsequent mutation and
/// makes it durable at the next Sync() — the group-commit barrier the
/// editor issues once per committed transaction. See storage/durable.h
/// and the README's "Durability" section for the file layout and the
/// recovery protocol.
class Database {
 public:
  // Both out of line: storage::Durability is incomplete here.
  explicit Database(std::string name);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Movable: tables are pointer-stable behind unique_ptr, and the
  // durability engine's back reference (if any) is re-pointed at the
  // destination.
  Database(Database&&);
  Database& operator=(Database&&);

  /// Opens a durable database rooted at directory `dir` (created if
  /// missing). Recovery runs before this returns: the newest checkpoint
  /// is restored, the log tail past it replayed, and any torn or corrupt
  /// tail truncated back to the last committed transaction.
  static Result<std::unique_ptr<Database>> Open(std::string name,
                                               const std::string& dir);

  const std::string& name() const { return name_; }

  /// Creates a table; fails if the name is taken.
  Result<Table*> CreateTable(const std::string& table_name, Schema schema);

  /// Fails with NotFound if absent.
  Result<Table*> GetTable(const std::string& table_name);
  Result<const Table*> GetTable(const std::string& table_name) const;

  Status DropTable(const std::string& table_name);

  /// Visits every table in name order (checkpointing, stats).
  void ForEachTable(const std::function<void(const Table&)>& fn) const;

  /// Table names in name order.
  std::vector<std::string> TableNames() const;

  size_t TableCount() const { return tables_.size(); }

  /// Total physical footprint across tables.
  size_t PhysicalBytes() const;

  // ----- Durability control (no-ops / errors for in-memory databases) ------

  /// True when a Durability engine is attached and accepting writes.
  bool durable() const;

  /// Group-commit barrier: seals every mutation since the previous Sync
  /// into ONE checksummed log record and fsyncs it — the transaction
  /// boundary of crash recovery. A no-op (OK, no fsync) when nothing is
  /// pending or the database is in-memory. Fails with FailedPrecondition
  /// once a durable database is closed: nothing written after Close can
  /// be made durable, so no commit may be acknowledged as if it were.
  Status Sync();

  /// Writes a full checkpoint and truncates the log. Implies Sync().
  /// Fails with FailedPrecondition for in-memory or closed databases.
  Status Checkpoint();

  /// Clean shutdown: Sync() then release the log. Later mutations still
  /// change the tables in memory but are never logged, and every later
  /// Sync() or Checkpoint() fails with FailedPrecondition. OK and a no-op
  /// for in-memory databases.
  Status Close();

  /// The attached durability engine (stats, test hooks), or nullptr.
  storage::Durability* durability() { return durability_.get(); }

  CostModel& cost() { return cost_; }
  const CostModel& cost() const { return cost_; }

 private:
  /// The FailedPrecondition a closed durable database answers.
  Status Closed() const;

  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  CostModel cost_;
  std::unique_ptr<storage::Durability> durability_;
};

}  // namespace cpdb::relstore
