#pragma once

#include <string>
#include <vector>

#include "relstore/database.h"
#include "wrap/source_db.h"

namespace cpdb::wrap {

/// Fully-keyed tree view of a relational database (the paper's
/// OrganelleDB-on-MySQL source): the data values are addressed by
/// four-level paths DB/R/tid/F — field F of the tuple with key `tid` in
/// table R (Section 2); a NULL field has no edge. Only listed tables are
/// exposed (typically the "catalog" relation, Section 3.1).
///
/// Each wrapper call charges the database's CostModel with one client
/// round trip, since in the paper's deployment the wrapper talks to a
/// remote MySQL server.
class RelationalSourceDb : public SourceDb {
 public:
  /// Exposes `tables` of `db`. By convention the first column of each
  /// exposed table is its tuple identifier and renders the tuple's edge
  /// label; remaining columns become leaf fields.
  RelationalSourceDb(std::string name, relstore::Database* db,
                     std::vector<std::string> tables)
      : name_(std::move(name)), db_(db), tables_(std::move(tables)) {}

  const std::string& name() const override { return name_; }

  Result<tree::Tree> TreeFromDb() override;

  Result<std::vector<CopiedNode>> CopyNode(const tree::Path& rel) override;

 private:
  /// Renders one tuple as a subtree {field: value, ...} of its non-key
  /// columns. A NULL column is an absent field: the target maps
  /// `ins {F: v} into R/tid` to "set F, which was NULL", so the view
  /// holds exactly the edges the updates that built the tuple made.
  static tree::Tree RowToTree(const relstore::Schema& schema,
                              const relstore::Row& row);
  static tree::Value DatumToValue(const relstore::Datum& d);

  std::string name_;
  relstore::Database* db_;
  std::vector<std::string> tables_;
};

}  // namespace cpdb::wrap
