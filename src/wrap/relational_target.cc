#include "wrap/relational_target.h"

#include <optional>

#include "util/str.h"
#include "wrap/relational_source.h"

namespace cpdb::wrap {

using relstore::ColumnType;
using relstore::Datum;
using relstore::Rid;
using relstore::Row;
using relstore::Table;

namespace {

/// The name of `table`'s key index: a unique index on exactly column 0.
Result<std::string> KeyIndex(const Table& table) {
  for (const relstore::IndexDef& def : table.IndexDefs()) {
    if (def.unique && def.columns == std::vector<int>{0}) return def.name;
  }
  return Status::FailedPrecondition(
      "table '" + table.name() +
      "' has no key index (a unique index on its identifier column, "
      "column 0)");
}

/// The identifier a tuple label names: the label parsed by the type of
/// `table`'s identifier column. Tuples are created under it and found by
/// it.
Result<Datum> LabelKey(const Table& table, const std::string& label) {
  const ColumnType type = table.schema().column(0).type;
  switch (type) {
    case ColumnType::kInt64: {
      int64_t v;
      if (ParseInt64(label, &v)) return Datum(v);
      break;
    }
    case ColumnType::kDouble: {
      double v;
      if (ParseDouble(label, &v)) return Datum(v);
      break;
    }
    case ColumnType::kString:
      return Datum(label);
  }
  return Status::InvalidArgument("tuple id '" + label +
                                 "' is not a valid " +
                                 relstore::ColumnTypeName(type) +
                                 " identifier");
}

}  // namespace

Result<tree::Tree> RelationalTargetDb::TreeFromDb() {
  CPDB_RETURN_IF_ERROR(CheckKeyIndexes());
  // The read side is identical to the source wrapper's keyed view.
  RelationalSourceDb reader(name_, db_, tables_);
  return reader.TreeFromDb();
}

Status RelationalTargetDb::CheckKeyIndexes() const {
  for (const std::string& t : tables_) {
    CPDB_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(t));
    CPDB_RETURN_IF_ERROR(KeyIndex(*table).status());
  }
  return Status::OK();
}

Status RelationalTargetDb::CreateKeyIndex(Table* table) {
  return table->CreateIndex("pk_id", {0}, /*unique=*/true);
}

Result<Table*> RelationalTargetDb::TableFor(const std::string& name) {
  for (const std::string& t : tables_) {
    if (t == name) return db_->GetTable(name);
  }
  return Status::NotFound("table '" + name + "' is not exposed by target " +
                          name_);
}

Result<RelationalTargetDb::Tuple> RelationalTargetDb::FindRow(
    const Table& table, const std::string& tid_label) {
  CPDB_ASSIGN_OR_RETURN(std::string index, KeyIndex(table));
  std::optional<Tuple> found;
  if (Result<Datum> key = LabelKey(table, tid_label); key.ok()) {
    CPDB_RETURN_IF_ERROR(table.LookupEq(
        index, {std::move(key).value()}, [&](const Rid& rid, const Row& row) {
          // A parsed label can render differently ("042" parses to 42);
          // it names the tuple only as the identifier's own rendering.
          if (row[0].ToString() == tid_label) found = Tuple{rid, row};
          return false;  // a unique index holds one match at most
        }));
  }
  if (!found.has_value()) {
    return Status::NotFound("no tuple '" + tid_label + "' in table " +
                            table.name());
  }
  return std::move(*found);
}

Status RelationalTargetDb::RewriteRow(Table* table, const Rid& rid,
                                      Row row) {
  CPDB_RETURN_IF_ERROR(table->Delete(rid));
  return table->Insert(row).status();
}

Result<Datum> RelationalTargetDb::ValueToDatum(const tree::Value& v,
                                               ColumnType type) {
  if (v.is_null()) return Datum();
  switch (type) {
    case ColumnType::kInt64:
      if (v.is_int()) return Datum(v.AsInt());
      break;
    case ColumnType::kDouble:
      if (v.is_double()) return Datum(v.AsDouble());
      if (v.is_int()) return Datum(static_cast<double>(v.AsInt()));
      break;
    case ColumnType::kString:
      return Datum(v.ToString());
  }
  return Status::InvalidArgument("value '" + v.ToString() +
                                 "' does not fit column type");
}

Status RelationalTargetDb::ApplyBatch(const std::vector<NativeOp>& ops) {
  if (ops.empty()) return Status::OK();
  cost().ChargeWrite(ops.size());
  for (const NativeOp& op : ops) {
    CPDB_RETURN_IF_ERROR(ApplyOne(op.update, op.pasted));
  }
  return Status::OK();
}

Status RelationalTargetDb::ApplyOne(const update::Update& u,
                                    const tree::Tree* copied_subtree) {
  const tree::Path& p = u.target;

  switch (u.kind) {
    case update::OpKind::kInsert: {
      if (p.Depth() == 1) {
        // ins {tid : {}} into R: fresh tuple, NULL fields.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        if (u.value.has_value()) {
          return Status::NotSupported(
              "a tuple node cannot carry a data value");
        }
        Row row(table->schema().NumColumns());
        CPDB_ASSIGN_OR_RETURN(row[0], LabelKey(*table, u.label));
        return table->Insert(row).status();
      }
      if (p.Depth() == 2) {
        // ins {F : v} into R/tid: set a field that is currently NULL.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(u.label);
        if (col <= 0) {
          return Status::NotSupported("no column '" + u.label +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(*table, p.At(1)));
        if (!t.row[static_cast<size_t>(col)].is_null()) {
          return Status::AlreadyExists("field '" + u.label +
                                       "' already set");
        }
        tree::Value v = u.value.value_or(tree::Value());
        CPDB_ASSIGN_OR_RETURN(
            t.row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid insert depths");
    }

    case update::OpKind::kDelete: {
      if (p.Depth() == 1) {
        // del tid from R.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(*table, u.label));
        return table->Delete(t.rid);
      }
      if (p.Depth() == 2) {
        // del F from R/tid: NULL out the field.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(u.label);
        if (col <= 0) {
          return Status::NotSupported("no column '" + u.label +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(*table, p.At(1)));
        t.row[static_cast<size_t>(col)] = Datum();
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid delete depths");
    }

    case update::OpKind::kCopy: {
      if (copied_subtree == nullptr) {
        return Status::InvalidArgument("paste requires the copied subtree");
      }
      if (p.Depth() == 2) {
        // copy ... into R/tid: upsert the whole tuple from the subtree's
        // leaf children.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        Result<Tuple> existing = FindRow(*table, p.At(1));
        if (!existing.ok() && !existing.status().IsNotFound()) {
          return existing.status();
        }
        Row row(table->schema().NumColumns());
        if (existing.ok()) {
          row = std::move(existing->row);
        } else {
          CPDB_ASSIGN_OR_RETURN(row[0], LabelKey(*table, p.At(1)));
        }
        for (const auto& [label, child] : copied_subtree->children()) {
          int col = table->schema().IndexOf(label);
          if (col <= 0) {
            return Status::NotSupported("no column '" + label +
                                        "' in table " + p.At(0));
          }
          tree::Value v =
              child->HasValue() ? child->value() : tree::Value();
          CPDB_ASSIGN_OR_RETURN(
              row[static_cast<size_t>(col)],
              ValueToDatum(v, table->schema()
                                  .column(static_cast<size_t>(col))
                                  .type));
        }
        if (existing.ok()) {
          return RewriteRow(table, existing->rid, std::move(row));
        }
        return table->Insert(row).status();
      }
      if (p.Depth() == 3) {
        // copy ... into R/tid/F: field update.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(p.At(2));
        if (col <= 0) {
          return Status::NotSupported("no column '" + p.At(2) +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(*table, p.At(1)));
        tree::Value v = copied_subtree->HasValue() ? copied_subtree->value()
                                                   : tree::Value();
        CPDB_ASSIGN_OR_RETURN(
            t.row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports pastes at R/tid and R/tid/F only");
    }
  }
  return Status::Internal("unknown update kind");
}

}  // namespace cpdb::wrap
