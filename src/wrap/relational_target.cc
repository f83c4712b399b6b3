#include "wrap/relational_target.h"

#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

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
/// it. A NaN is no identifier: it is neither less nor greater than any
/// DOUBLE, so the key index would see it equal to every key.
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
      if (ParseDouble(label, &v) && !std::isnan(v)) return Datum(v);
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

/// The position of the non-key column `name` in `table`.
Result<size_t> FieldColumn(const Table& table, const std::string& name) {
  int col = table.schema().IndexOf(name);
  if (col <= 0) {
    return Status::NotSupported("no column '" + name + "' in table " +
                                table.name());
  }
  return static_cast<size_t>(col);
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

Result<Datum> RelationalTargetDb::FieldDatum(const tree::Value* v,
                                             const std::string& field,
                                             ColumnType type) {
  if (v == nullptr || v->is_null()) {
    return Status::InvalidArgument(
        "field '" + field +
        "' needs a non-null data value: a NULL column reads back as no "
        "field");
  }
  switch (type) {
    case ColumnType::kInt64:
      if (v->is_int()) return Datum(v->AsInt());
      break;
    case ColumnType::kDouble:
      if (v->is_double()) return Datum(v->AsDouble());
      if (v->is_int()) return Datum(static_cast<double>(v->AsInt()));
      break;
    case ColumnType::kString:
      return Datum(v->ToString());
  }
  return Status::InvalidArgument("value '" + v->ToString() +
                                 "' does not fit column type");
}

/// One batch's working set: every tuple its ops touch, in first-touch
/// order, with the row the table stores for the tuple's identifier and the
/// row the ops folded so far leave there.
class RelationalTargetDb::NetEffect {
 public:
  struct Touched {
    Table* table;
    /// Where the stored row lives; absent for an identifier the table
    /// does not hold.
    std::optional<Rid> rid;
    Row stored;
    /// The working image; absent while the tuple is deleted.
    std::optional<Row> image;
  };

  /// The tuple with identifier `key`, read through the key index on its
  /// first touch.
  Result<Touched*> Touch(Table* table, const Datum& key) {
    auto slot = slots_.find({table, key});
    if (slot != slots_.end()) return slot->second;
    CPDB_ASSIGN_OR_RETURN(std::string index, KeyIndex(*table));
    Touched t{table, std::nullopt, Row(), std::nullopt};
    CPDB_RETURN_IF_ERROR(
        table->LookupEq(index, {key}, [&](const Rid& rid, const Row& row) {
          t.rid = rid;
          t.stored = row;
          return false;  // a unique index holds one match at most
        }));
    if (t.rid.has_value()) t.image = t.stored;
    Touched* touched = &touched_.emplace_back(std::move(t));
    slots_.emplace(std::make_pair(table, key), touched);
    return touched;
  }

  /// The tuple labelled `label`: its image exists and its identifier
  /// renders to exactly `label` (a parsed label can render differently:
  /// "042" parses to 42).
  Result<Touched*> Find(Table* table, const std::string& label) {
    if (Result<Datum> key = LabelKey(*table, label); key.ok()) {
      CPDB_ASSIGN_OR_RETURN(Touched * t, Touch(table, key.value()));
      if (t->image.has_value() && (*t->image)[0].ToString() == label) {
        return t;
      }
    }
    return Status::NotFound("no tuple '" + label + "' in table " +
                            table->name());
  }

  /// Adds `row` as a new tuple, checked as Table::Insert checks it:
  /// Table::CheckRow, then the identifier's uniqueness in the key index.
  Status Add(Table* table, Row row) {
    CPDB_RETURN_IF_ERROR(table->CheckRow(row));
    CPDB_ASSIGN_OR_RETURN(Touched * t, Touch(table, row[0]));
    if (t->image.has_value()) {
      CPDB_ASSIGN_OR_RETURN(std::string index, KeyIndex(*table));
      return Status::AlreadyExists("duplicate key " +
                                   relstore::RowToString({row[0]}) +
                                   " in unique index '" + index + "'");
    }
    t->image = std::move(row);
    return Status::OK();
  }

  /// Replaces `t`'s image with `row` once `row` passes Table::CheckRow.
  static Status Replace(Touched* t, Row row) {
    CPDB_RETURN_IF_ERROR(t->table->CheckRow(row));
    t->image = std::move(row);
    return Status::OK();
  }

  /// Sets field `col` of `t`'s image to `value`; the image must then pass
  /// Table::CheckRow.
  static Status SetField(Touched* t, size_t col, Datum value) {
    (*t->image)[col] = std::move(value);
    return t->table->CheckRow(*t->image);
  }

  /// Stores every tuple whose image differs from its stored row, in
  /// first-touch order: the one rewrite per tuple.
  Status Write() {
    for (const Touched& t : touched_) {
      if (t.rid.has_value() && t.image.has_value() &&
          SameBytes(t.stored, *t.image)) {
        continue;
      }
      if (t.rid.has_value()) CPDB_RETURN_IF_ERROR(t.table->Delete(*t.rid));
      if (t.image.has_value()) {
        CPDB_RETURN_IF_ERROR(t.table->Insert(*t.image).status());
      }
    }
    return Status::OK();
  }

 private:
  /// Byte equality: Datum's == calls 0.0 and -0.0 equal, and they render
  /// differently.
  static bool SameBytes(const Row& a, const Row& b) {
    std::string ea, eb;
    relstore::EncodeRow(a, &ea);
    relstore::EncodeRow(b, &eb);
    return ea == eb;
  }

  /// Stable addresses: Touch hands out pointers while it keeps adding.
  std::deque<Touched> touched_;
  std::map<std::pair<const Table*, Datum>, Touched*> slots_;
};

Result<NativeWrite> RelationalTargetDb::Prepare(
    const std::vector<NativeOp>& ops) {
  if (ops.empty()) return NativeWrite([] { return Status::OK(); });
  auto net = std::make_shared<NetEffect>();
  for (const NativeOp& op : ops) {
    CPDB_RETURN_IF_ERROR(Fold(op.update, op.pasted, net.get()));
  }
  return NativeWrite([this, net, rows = ops.size()] {
    cost().ChargeWrite(rows);
    return net->Write();
  });
}

Status RelationalTargetDb::Fold(const update::Update& u,
                                const tree::Tree* pasted, NetEffect* net) {
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
        return net->Add(table, std::move(row));
      }
      if (p.Depth() == 2) {
        // ins {F : v} into R/tid: set a field that is currently NULL.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(size_t col, FieldColumn(*table, u.label));
        CPDB_ASSIGN_OR_RETURN(NetEffect::Touched * t,
                              net->Find(table, p.At(1)));
        if (!(*t->image)[col].is_null()) {
          return Status::AlreadyExists("field '" + u.label +
                                       "' already set");
        }
        CPDB_ASSIGN_OR_RETURN(
            Datum v, FieldDatum(u.value.has_value() ? &*u.value : nullptr,
                                u.label, table->schema().column(col).type));
        return NetEffect::SetField(t, col, std::move(v));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid insert depths");
    }

    case update::OpKind::kDelete: {
      if (p.Depth() == 1) {
        // del tid from R.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(NetEffect::Touched * t,
                              net->Find(table, u.label));
        t->image.reset();
        return Status::OK();
      }
      if (p.Depth() == 2) {
        // del F from R/tid: NULL out the field.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(size_t col, FieldColumn(*table, u.label));
        CPDB_ASSIGN_OR_RETURN(NetEffect::Touched * t,
                              net->Find(table, p.At(1)));
        return NetEffect::SetField(t, col, Datum());
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid delete depths");
    }

    case update::OpKind::kCopy: {
      if (pasted == nullptr) {
        return Status::InvalidArgument("paste requires the copied subtree");
      }
      if (p.Depth() == 2) {
        // copy ... into R/tid: the tuple becomes the subtree's leaf
        // children, NULL elsewhere, as the pasted subtree replaces the
        // whole node in the universe.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        Row row(table->schema().NumColumns());
        CPDB_ASSIGN_OR_RETURN(row[0], LabelKey(*table, p.At(1)));
        for (const auto& [label, child] : pasted->children()) {
          CPDB_ASSIGN_OR_RETURN(size_t col, FieldColumn(*table, label));
          CPDB_ASSIGN_OR_RETURN(
              row[col],
              FieldDatum(child->HasValue() ? &child->value() : nullptr, label,
                         table->schema().column(col).type));
        }
        Result<NetEffect::Touched*> existing = net->Find(table, p.At(1));
        if (existing.ok()) return NetEffect::Replace(*existing, std::move(row));
        if (!existing.status().IsNotFound()) return existing.status();
        return net->Add(table, std::move(row));
      }
      if (p.Depth() == 3) {
        // copy ... into R/tid/F: field update.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(size_t col, FieldColumn(*table, p.At(2)));
        CPDB_ASSIGN_OR_RETURN(NetEffect::Touched * t,
                              net->Find(table, p.At(1)));
        CPDB_ASSIGN_OR_RETURN(
            Datum v,
            FieldDatum(pasted->HasValue() ? &pasted->value() : nullptr,
                       p.At(2), table->schema().column(col).type));
        return NetEffect::SetField(t, col, std::move(v));
      }
      return Status::NotSupported(
          "relational target supports pastes at R/tid and R/tid/F only");
    }
  }
  return Status::Internal("unknown update kind");
}

}  // namespace cpdb::wrap
