#include "wrap/relational_target.h"

#include "util/str.h"
#include "wrap/relational_source.h"

namespace cpdb::wrap {

using relstore::ColumnType;
using relstore::Datum;
using relstore::Rid;
using relstore::Row;
using relstore::Table;

Result<tree::Tree> RelationalTargetDb::TreeFromDb() {
  // The read side is identical to the source wrapper's keyed view.
  RelationalSourceDb reader(name_, db_, tables_);
  return reader.TreeFromDb();
}

Result<Table*> RelationalTargetDb::TableFor(const std::string& name) {
  for (const std::string& t : tables_) {
    if (t == name) return db_->GetTable(name);
  }
  return Status::NotFound("table '" + name + "' is not exposed by target " +
                          name_);
}

Result<Rid> RelationalTargetDb::FindRow(Table* table,
                                        const std::string& tid_label) {
  Rid found{0, 0};
  bool ok = false;
  table->Scan([&](const Rid& rid, const Row& row) {
    if (!row.empty() && row[0].ToString() == tid_label) {
      found = rid;
      ok = true;
      return false;
    }
    return true;
  });
  if (!ok) {
    return Status::NotFound("no tuple '" + tid_label + "' in table " +
                            table->name());
  }
  return found;
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
        row[0] = Datum(u.label);
        if (table->schema().column(0).type == ColumnType::kInt64) {
          int64_t key;
          if (!ParseInt64(u.label, &key)) {
            return Status::InvalidArgument("tuple id '" + u.label +
                                           "' is not an integer key");
          }
          row[0] = Datum(key);
        }
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
        CPDB_ASSIGN_OR_RETURN(Rid rid, FindRow(table, p.At(1)));
        CPDB_ASSIGN_OR_RETURN(Row row, table->Get(rid));
        if (!row[static_cast<size_t>(col)].is_null()) {
          return Status::AlreadyExists("field '" + u.label +
                                       "' already set");
        }
        tree::Value v = u.value.value_or(tree::Value());
        CPDB_ASSIGN_OR_RETURN(
            row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, rid, std::move(row));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid insert depths");
    }

    case update::OpKind::kDelete: {
      if (p.Depth() == 1) {
        // del tid from R.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(Rid rid, FindRow(table, u.label));
        return table->Delete(rid);
      }
      if (p.Depth() == 2) {
        // del F from R/tid: NULL out the field.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(u.label);
        if (col <= 0) {
          return Status::NotSupported("no column '" + u.label +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Rid rid, FindRow(table, p.At(1)));
        CPDB_ASSIGN_OR_RETURN(Row row, table->Get(rid));
        row[static_cast<size_t>(col)] = Datum();
        return RewriteRow(table, rid, std::move(row));
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
        auto existing = FindRow(table, p.At(1));
        Row row(table->schema().NumColumns());
        if (existing.ok()) {
          CPDB_ASSIGN_OR_RETURN(row, table->Get(existing.value()));
        } else {
          row[0] = table->schema().column(0).type == ColumnType::kInt64
                       ? Datum()
                       : Datum(p.At(1));
          if (table->schema().column(0).type == ColumnType::kInt64) {
            int64_t key;
            if (!ParseInt64(p.At(1), &key)) {
              return Status::InvalidArgument("tuple id '" + p.At(1) +
                                             "' is not an integer key");
            }
            row[0] = Datum(key);
          }
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
          return RewriteRow(table, existing.value(), std::move(row));
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
        CPDB_ASSIGN_OR_RETURN(Rid rid, FindRow(table, p.At(1)));
        CPDB_ASSIGN_OR_RETURN(Row row, table->Get(rid));
        tree::Value v = copied_subtree->HasValue() ? copied_subtree->value()
                                                   : tree::Value();
        CPDB_ASSIGN_OR_RETURN(
            row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, rid, std::move(row));
      }
      return Status::NotSupported(
          "relational target supports pastes at R/tid and R/tid/F only");
    }
  }
  return Status::Internal("unknown update kind");
}

}  // namespace cpdb::wrap
