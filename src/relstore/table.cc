#include "relstore/table.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/str.h"

namespace cpdb::relstore {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

namespace {

/// True if `tree` holds an entry whose key equals the full-arity `key`.
bool Contains(const BTree& tree, const Row& key) {
  BTree::Cursor cur = tree.Seek(key);
  return cur.Valid() && CompareRows(key, cur.key()) == 0;
}

}  // namespace

Status Table::CreateIndex(const std::string& index_name,
                          std::vector<int> columns, bool unique) {
  if (RowCount() != 0) {
    return Status::FailedPrecondition(
        "indexes must be created on an empty table");
  }
  if (FindIndex(index_name) != nullptr) {
    return Status::AlreadyExists("index '" + index_name + "' exists");
  }
  for (int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= schema_.NumColumns()) {
      return Status::InvalidArgument("index column out of range");
    }
  }
  indexes_.push_back(
      {index_name, std::move(columns), unique, std::make_unique<BTree>()});
  if (journal_ != nullptr) {
    journal_->NoteCreateIndex(
        name_, {index_name, indexes_.back().columns, unique});
  }
  return Status::OK();
}

std::vector<IndexDef> Table::IndexDefs() const {
  std::vector<IndexDef> defs;
  defs.reserve(indexes_.size());
  for (const Index& idx : indexes_) {
    defs.push_back({idx.name, idx.columns, idx.unique});
  }
  return defs;
}

Row Table::ExtractKey(const Index& idx, const Row& row) const {
  Row key;
  key.reserve(idx.columns.size());
  for (int c : idx.columns) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

const Table::Index* Table::FindIndex(const std::string& name) const {
  for (const auto& idx : indexes_) {
    if (idx.name == name) return &idx;
  }
  return nullptr;
}

Status Table::CheckRow(const Row& row) const {
  CPDB_RETURN_IF_ERROR(schema_.Validate(row));
  if (EncodedRowSize(row) > Page::kMaxRecordSize) {
    return Status::InvalidArgument("record larger than page");
  }
  return Status::OK();
}

Result<Rid> Table::Insert(const Row& row) {
  CPDB_RETURN_IF_ERROR(CheckRow(row));
  // Each index's key, extracted once: the unique ones are checked before
  // any mutation, then every key moves into its index.
  std::vector<Row> keys;
  keys.reserve(indexes_.size());
  for (const Index& idx : indexes_) {
    keys.push_back(ExtractKey(idx, row));
    if (idx.unique && Contains(*idx.btree, keys.back())) {
      return Status::AlreadyExists("duplicate key " +
                                   RowToString(keys.back()) +
                                   " in unique index '" + idx.name + "'");
    }
  }
  std::string encoded;
  EncodeRow(row, &encoded);
  CPDB_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(encoded));
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    indexes_[ix].btree->Insert(std::move(keys[ix]), rid);
  }
  if (journal_ != nullptr) journal_->NoteInsert(name_, row);
  return rid;
}

Status Table::InsertBatch(const std::vector<Row>& rows) {
  // ---- Validation phase: nothing below may mutate until it all passes.
  for (const Row& row : rows) {
    CPDB_RETURN_IF_ERROR(CheckRow(row));
  }
  // Each index's keys, extracted once: checked here, fed to the index
  // below.
  std::vector<std::vector<Row>> index_keys(indexes_.size());
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    const Index& idx = indexes_[ix];
    std::vector<Row>& keys = index_keys[ix];
    keys.reserve(rows.size());
    for (const Row& row : rows) keys.push_back(ExtractKey(idx, row));
    if (!idx.unique) continue;
    // In-batch duplicates: sort pointers, not rows, and check adjacency.
    std::vector<const Row*> sorted;
    sorted.reserve(keys.size());
    for (const Row& key : keys) sorted.push_back(&key);
    std::sort(sorted.begin(), sorted.end(),
              [](const Row* a, const Row* b) { return RowLess(*a, *b); });
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      if (CompareRows(*sorted[i], *sorted[i + 1]) == 0) {
        return Status::AlreadyExists(
            "duplicate key " + RowToString(*sorted[i]) +
            " in unique index '" + idx.name + "' within one batch");
      }
    }
    for (const Row& key : keys) {
      if (Contains(*idx.btree, key)) {
        return Status::AlreadyExists("duplicate key " + RowToString(key) +
                                     " in unique index '" + idx.name +
                                     "'");
      }
    }
  }

  // ---- Execution phase. Heap inserts first: CheckRow bounded every
  // record by a page, so none should fail; if one does, only the rows
  // stored before it need un-storing (no index has been touched yet).
  std::vector<Rid> rids;
  rids.reserve(rows.size());
  std::string encoded;
  for (const Row& row : rows) {
    encoded.clear();
    EncodeRow(row, &encoded);
    auto rid = heap_.Insert(encoded);
    if (!rid.ok()) {
      for (const Rid& stored : rids) (void)heap_.Delete(stored);
      return rid.status();
    }
    rids.push_back(rid.value());
  }
  // Each index absorbs the batch as one sorted run.
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    std::vector<std::pair<Row, Rid>> run;
    run.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      run.emplace_back(std::move(index_keys[ix][i]), rids[i]);
    }
    indexes_[ix].btree->BulkUpsert(std::move(run));
  }
  if (journal_ != nullptr) {
    for (const Row& row : rows) journal_->NoteInsert(name_, row);
  }
  return Status::OK();
}

Result<Row> Table::Get(const Rid& rid) const {
  CPDB_ASSIGN_OR_RETURN(std::string rec, heap_.Read(rid));
  Row row;
  size_t pos = 0;
  if (!DecodeRow(rec, &pos, &row)) {
    return Status::Internal("corrupt record at " + rid.ToString());
  }
  return row;
}

Status Table::Delete(const Rid& rid) {
  CPDB_ASSIGN_OR_RETURN(Row row, Get(rid));
  CPDB_RETURN_IF_ERROR(heap_.Delete(rid));
  for (auto& idx : indexes_) idx.btree->Erase(ExtractKey(idx, row), rid);
  if (journal_ != nullptr) journal_->NoteDelete(name_, row);
  return Status::OK();
}

Status Table::DeleteRowImage(const Row& row) {
  std::optional<Rid> victim;
  auto probe = [&](const Rid& rid, const Row& candidate) {
    if (candidate == row) {
      victim = rid;
      return false;
    }
    return true;
  };
  if (indexes_.empty()) {
    Scan(probe);
  } else {
    const Index& idx = indexes_.front();
    if (row.size() < schema_.NumColumns()) {
      return Status::InvalidArgument("row image too short for table '" +
                                     name_ + "'");
    }
    CPDB_RETURN_IF_ERROR(LookupEq(idx.name, ExtractKey(idx, row), probe));
  }
  if (!victim.has_value()) {
    return Status::NotFound("no row equal to " + RowToString(row) +
                            " in table '" + name_ + "'");
  }
  return Delete(*victim);
}

void Table::Scan(
    const std::function<bool(const Rid&, const Row&)>& fn) const {
  heap_.Scan([&](const Rid& rid, const std::string& rec) {
    Row row;
    size_t pos = 0;
    if (!DecodeRow(rec, &pos, &row)) return true;  // skip corrupt
    return fn(rid, row);
  });
}

Result<Table::Cursor> Table::OpenScan(ScanSpec spec) const {
  const Index* idx = FindIndex(spec.index);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + spec.index + "'");
  }
  if (spec.eq.size() > idx->columns.size()) {
    return Status::InvalidArgument("scan bound exceeds key arity of '" +
                                   spec.index + "'");
  }
  Cursor cur;
  cur.table_ = this;
  if (spec.visible_col >= 0) {
    auto vis = std::find(idx->columns.begin(), idx->columns.end(),
                         spec.visible_col);
    if (vis == idx->columns.end()) {
      return Status::InvalidArgument("scan of '" + spec.index +
                                     "' bounds a column outside its key");
    }
    cur.visible_key_pos_ = static_cast<int>(vis - idx->columns.begin());
  }
  // The start position: an equality prefix or string prefix names the
  // first possible key. A partial-arity bound compares as a prefix row,
  // which sorts before every full key extending it.
  if (!spec.eq.empty()) {
    cur.pos_ = idx->btree->Seek(spec.eq);
  } else if (!spec.prefix.empty()) {
    cur.pos_ = idx->btree->Seek(Row{Datum(spec.prefix)});
  } else {
    cur.pos_ = idx->btree->SeekFirst();
  }
  cur.spec_ = std::move(spec);
  cur.done_ = !cur.pos_.Valid();
  return cur;
}

bool Table::Cursor::Next(Row* row) {
  if (done_) return false;
  for (; pos_.Valid(); pos_.Advance()) {
    const Row& key = pos_.key();
    if (!std::equal(spec_.eq.begin(), spec_.eq.end(), key.begin())) {
      break;  // ordered: past the eq range
    }
    if (!spec_.prefix.empty()) {
      if (key.empty() || !key[0].is_string() ||
          !StartsWith(key[0].AsString(), spec_.prefix)) {
        break;  // ordered: past the prefix range
      }
    }
    if (visible_key_pos_ >= 0) {
      const Datum& bound = key[static_cast<size_t>(visible_key_pos_)];
      if (bound.is_int() && bound.AsInt() > spec_.visible_max) {
        continue;  // younger than the reader's snapshot; no heap read
      }
    }
    if (spec_.keys_only) {
      *row = key;
    } else {
      auto fetched = table_->Get(pos_.rid());
      if (!fetched.ok()) {
        status_ = fetched.status();
        done_ = true;
        return false;
      }
      *row = std::move(fetched).value();
    }
    pos_.Advance();
    return true;
  }
  done_ = true;
  return false;
}

Status Table::LookupEq(
    const std::string& index_name, const Row& key,
    const std::function<bool(const Rid&, const Row&)>& fn) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  if (key.size() != idx->columns.size()) {
    return Status::InvalidArgument("key arity mismatch for index '" +
                                   index_name + "'");
  }
  for (BTree::Cursor cur = idx->btree->Seek(key);
       cur.Valid() && CompareRows(key, cur.key()) == 0; cur.Advance()) {
    CPDB_ASSIGN_OR_RETURN(Row row, Get(cur.rid()));
    if (!fn(cur.rid(), row)) break;
  }
  return Status::OK();
}

Result<Row> Table::LastKey(const std::string& index_name) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  BTree::Cursor last = idx->btree->SeekLast();
  if (!last.Valid()) {
    return Status::NotFound("table '" + name_ + "' is empty");
  }
  return last.key();
}

}  // namespace cpdb::relstore
