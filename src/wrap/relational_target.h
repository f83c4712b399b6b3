#pragma once

#include <string>
#include <vector>

#include "relstore/database.h"
#include "wrap/target_db.h"

namespace cpdb::wrap {

/// A relational database as the curated target, addressed by four-level
/// paths R/tid/F (table / tuple / field) below the mount label. This
/// demonstrates the paper's claim that "any underlying data model for
/// which path addresses make sense can be used" on the *target* side too.
///
/// Path-to-SQL mapping of the atomic updates:
///   ins {tid : {}} into R          -> INSERT a fresh tuple (NULL fields)
///   ins {F : v} into R/tid         -> UPDATE R SET F = v (F was NULL)
///   del tid from R                 -> DELETE FROM R WHERE key = tid
///   del F from R/tid               -> UPDATE R SET F = NULL
///   copy ... into R/tid            -> upsert the whole tuple
///   copy ... into R/tid/F          -> UPDATE R SET F = value
/// Updates that do not fit the relational schema (new tables, extra
/// nesting, unknown fields) fail with NotSupported/InvalidArgument —
/// mirroring a real wrapper's schema mapping limits.
///
/// Every wrapped table carries its *key index*: a unique index on exactly
/// column 0, created together with the table. Replay finds the
/// tuple `tid` with one descent of it: the label is parsed by the
/// identifier's column type and names the tuple whose identifier renders
/// to exactly that label, so an int64 `042` names no tuple. A racing
/// duplicate tuple insert fails with AlreadyExists instead of storing a
/// second row with the same identifier.
class RelationalTargetDb : public TargetDb {
 public:
  /// Exposes `tables` of `db`; first column of each table is the tuple
  /// identifier (as in RelationalSourceDb) and must carry the key index.
  RelationalTargetDb(std::string name, relstore::Database* db,
                     std::vector<std::string> tables)
      : name_(std::move(name)), db_(db), tables_(std::move(tables)) {}

  const std::string& name() const override { return name_; }

  /// The keyed view, after CheckKeyIndexes: Editor::Create and
  /// SessionPool::Build run this before any write, so no commit reaches a
  /// replay that cannot find its tuple.
  Result<tree::Tree> TreeFromDb() override;

  /// OK when every wrapped table exists and carries its key index;
  /// FailedPrecondition naming the first table that lacks it.
  Status CheckKeyIndexes() const;

  /// Creates the key index on `table`, which must still be empty: call it
  /// right after creating a table this target will wrap.
  static Status CreateKeyIndex(relstore::Table* table);

  /// One modelled SQL batch statement for the whole transaction: each
  /// op's SQL mechanics run in order, one round trip charged in total.
  Status ApplyBatch(const std::vector<NativeOp>& ops) override;

  /// Group-commit barrier of the backing store — one fsync per committed
  /// transaction when `db` is durable, a no-op otherwise. When the target
  /// shares its Database with the provenance backend, data and provenance
  /// ride the same log record and recover to the same transaction.
  Status Sync() override { return db_->Sync(); }

  relstore::CostModel& cost() override { return db_->cost(); }

 private:
  /// The path-to-SQL mechanics of one update, with no cost charged.
  Status ApplyOne(const update::Update& u, const tree::Tree* copied_subtree);

  Result<relstore::Table*> TableFor(const std::string& name);

  /// A located tuple: where it lives and its decoded row.
  struct Tuple {
    relstore::Rid rid;
    relstore::Row row;
  };

  /// Finds the tuple labelled `tid_label` through the key index.
  static Result<Tuple> FindRow(const relstore::Table& table,
                               const std::string& tid_label);

  /// Replaces a row in place (delete + insert).
  Status RewriteRow(relstore::Table* table, const relstore::Rid& rid,
                    relstore::Row row);

  static Result<relstore::Datum> ValueToDatum(const tree::Value& v,
                                              relstore::ColumnType type);

  std::string name_;
  relstore::Database* db_;
  std::vector<std::string> tables_;
};

}  // namespace cpdb::wrap
