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
///   ins {F : v} into R/tid         -> UPDATE R SET F = v (F was NULL;
///                                     v is a non-null data value)
///   del tid from R                 -> DELETE FROM R WHERE key = tid
///   del F from R/tid               -> UPDATE R SET F = NULL
///   copy ... into R/tid            -> replace the whole tuple (key, the
///                                     pasted fields, NULL elsewhere)
///   copy ... into R/tid/F          -> UPDATE R SET F = value
/// Updates that do not fit the relational schema (new tables, extra
/// nesting, unknown fields) fail with NotSupported/InvalidArgument —
/// mirroring a real wrapper's schema mapping limits. A field is a column,
/// and a NULL column is an absent field, so a field must hold a non-null
/// data value: an insert of null or {}, and a paste that puts a null leaf,
/// an empty node or a subtree at a field, fail with InvalidArgument.
///
/// Every wrapped table carries its *key index*: a unique index on exactly
/// column 0, created together with the table. The label `tid` is parsed
/// by the identifier's column type and names the tuple whose identifier
/// renders to exactly that label, so an int64 `042` names no tuple. A
/// DOUBLE label that parses to NaN is refused as an invalid identifier:
/// NaN is unordered, and the key index would take it as equal to every
/// key. A racing duplicate tuple insert fails with AlreadyExists instead
/// of storing a second row with the same identifier.
///
/// A transaction is replayed by its net effect, as the transactional
/// provenance strategies record it: each touched tuple is read once
/// through the key index and rewritten at most once per batch, so the
/// write-ahead log carries only the final row images. The key index is
/// the only unique constraint the fold checks; a wrapped table carries no
/// other unique index. An op whose row image would not fit one heap page
/// is refused in the fold, which refuses its whole transaction.
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

  /// One modelled SQL batch statement for the whole transaction, in two
  /// passes. Prepare folds the ops in order into one working row image
  /// per touched tuple, read once through the key index; every op runs
  /// its checks against those images, including Table::CheckRow on its
  /// result (the schema, and a row image that fits one heap page). The
  /// first op that fails is Prepare's error, and nothing is written. The
  /// write then charges one round trip and stores each tuple whose image
  /// changed, in first-touch order: it deletes the stored row, inserts
  /// the image, or both. The table must not change between the two.
  Result<NativeWrite> Prepare(const std::vector<NativeOp>& ops) override;

  /// Group-commit barrier of the backing store — one fsync per committed
  /// transaction when `db` is durable, a no-op otherwise. When the target
  /// shares its Database with the provenance backend, data and provenance
  /// ride the same log record and recover to the same transaction.
  Status Sync() override { return db_->Sync(); }

  relstore::CostModel& cost() override { return db_->cost(); }

 private:
  /// The tuples one batch touches, with their stored rows and working
  /// images (relational_target.cc).
  class NetEffect;

  /// Folds one update into `net`: its path-to-SQL mechanics run against
  /// the working images, with no cost charged and nothing written.
  Status Fold(const update::Update& u, const tree::Tree* pasted,
              NetEffect* net);

  Result<relstore::Table*> TableFor(const std::string& name);

  /// The column value of field `field` holding data value `v` (nullptr
  /// for a field node with no data value: {} or a subtree). A NULL column
  /// reads back as an absent field, so a null, {} or subtree is refused
  /// with InvalidArgument: storing it would keep the edge only in the
  /// session that staged it.
  static Result<relstore::Datum> FieldDatum(const tree::Value* v,
                                            const std::string& field,
                                            relstore::ColumnType type);

  std::string name_;
  relstore::Database* db_;
  std::vector<std::string> tables_;
};

}  // namespace cpdb::wrap
