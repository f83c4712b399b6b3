#include "wrap/relational_source.h"

#include <set>

namespace cpdb::wrap {

tree::Value RelationalSourceDb::DatumToValue(const relstore::Datum& d) {
  if (d.is_int()) return tree::Value(d.AsInt());
  if (d.is_double()) return tree::Value(d.AsDouble());
  if (d.is_string()) return tree::Value(d.AsString());
  return tree::Value();  // NULL
}

tree::Tree RelationalSourceDb::RowToTree(const relstore::Schema& schema,
                                         const relstore::Row& row) {
  tree::Tree tuple;
  for (size_t c = 1; c < row.size(); ++c) {
    if (row[c].is_null()) continue;
    // Field labels come from the schema; tables with duplicate column
    // names are rejected at schema level, so AddChild cannot collide.
    (void)tuple.AddChild(schema.column(c).name,
                         tree::Tree(DatumToValue(row[c])));
  }
  return tuple;
}

Result<tree::Tree> RelationalSourceDb::TreeFromDb() {
  tree::Tree root;
  size_t rows = 0;
  for (const std::string& table_name : tables_) {
    CPDB_ASSIGN_OR_RETURN(const relstore::Table* table,
                          static_cast<const relstore::Database*>(db_)
                              ->GetTable(table_name));
    // Heap order is not label order: collect the tuples, then build the
    // table's node in one sort.
    std::vector<std::pair<std::string, tree::Tree>> tuples;
    tuples.reserve(table->RowCount());
    table->Scan([&](const relstore::Rid&, const relstore::Row& row) {
      if (!row.empty()) {
        tuples.emplace_back(row[0].ToString(), RowToTree(table->schema(), row));
      }
      return true;
    });
    Result<tree::Tree> rel = tree::Tree::FromChildren(std::move(tuples));
    if (rel.status().IsAlreadyExists()) {
      // Duplicate first-column keys break path uniqueness; name the first
      // identifier the scan meets twice.
      std::set<std::string> seen;
      std::string label;
      table->Scan([&](const relstore::Rid&, const relstore::Row& row) {
        if (row.empty()) return true;
        label = row[0].ToString();
        return seen.insert(label).second;
      });
      return Status::InvalidArgument("table '" + table_name +
                                     "' has duplicate tuple identifier: " +
                                     label);
    }
    CPDB_RETURN_IF_ERROR(rel.status());
    rows += rel->ChildCount();
    CPDB_RETURN_IF_ERROR(root.AddChild(table_name, std::move(rel).value()));
  }
  // One client call shipping the whole exposed view.
  db_->cost().ChargeCall(rows);
  return root;
}

Result<std::vector<CopiedNode>> RelationalSourceDb::CopyNode(
    const tree::Path& rel) {
  // Materialise the view and export from it; a production wrapper would
  // translate the path into a point query, which we emulate cost-wise by
  // charging only the returned rows.
  CPDB_ASSIGN_OR_RETURN(tree::Tree view, TreeFromDb());
  const tree::Tree* node = view.Find(rel);
  if (node == nullptr) {
    return Status::NotFound("no node at '" + rel.ToString() + "' in source " +
                            name_);
  }
  std::vector<CopiedNode> out;
  node->Visit([&](const tree::Path& sub, const tree::Tree& t) {
    CopiedNode cn;
    cn.path = rel.Concat(sub);
    if (t.HasValue()) cn.value = t.value();
    out.push_back(std::move(cn));
  });
  return out;
}

}  // namespace cpdb::wrap
