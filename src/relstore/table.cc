#include "relstore/table.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/str.h"

namespace cpdb::relstore {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CreateIndex(const std::string& index_name,
                          std::vector<int> columns, IndexKind kind,
                          bool unique) {
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
  if (unique && kind != IndexKind::kBTree && kind != IndexKind::kHash) {
    return Status::InvalidArgument("bad index kind");
  }
  Index idx;
  idx.name = index_name;
  idx.columns = std::move(columns);
  idx.kind = kind;
  idx.unique = unique;
  if (kind == IndexKind::kBTree) {
    idx.btree = std::make_unique<BTree>();
  } else {
    idx.hash = std::make_unique<HashIndex>();
  }
  indexes_.push_back(std::move(idx));
  if (journal_ != nullptr) {
    journal_->NoteCreateIndex(
        name_, {index_name, indexes_.back().columns, kind, unique});
  }
  return Status::OK();
}

std::vector<IndexDef> Table::IndexDefs() const {
  std::vector<IndexDef> defs;
  defs.reserve(indexes_.size());
  for (const Index& idx : indexes_) {
    defs.push_back({idx.name, idx.columns, idx.kind, idx.unique});
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

Result<Rid> Table::Insert(const Row& row) {
  CPDB_RETURN_IF_ERROR(schema_.Validate(row));
  // Unique-constraint checks before any mutation.
  for (const auto& idx : indexes_) {
    if (!idx.unique) continue;
    Row key = ExtractKey(idx, row);
    bool found = false;
    if (idx.kind == IndexKind::kBTree) {
      idx.btree->LookupEq(key, [&](const Row&, const Rid&) {
        found = true;
        return false;
      });
    } else {
      idx.hash->LookupEq(key, [&](const Rid&) {
        found = true;
        return false;
      });
    }
    if (found) {
      return Status::AlreadyExists("duplicate key " + RowToString(key) +
                                   " in unique index '" + idx.name + "'");
    }
  }
  std::string encoded;
  EncodeRow(row, &encoded);
  CPDB_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(encoded));
  for (auto& idx : indexes_) {
    Row key = ExtractKey(idx, row);
    if (idx.kind == IndexKind::kBTree) {
      idx.btree->Insert(key, rid);
    } else {
      idx.hash->Insert(key, rid);
    }
  }
  if (journal_ != nullptr) journal_->NoteInsert(name_, row);
  return rid;
}

Result<size_t> Table::BulkLoad(const std::vector<Row>& rows) {
  if (RowCount() != 0) {
    return Status::FailedPrecondition("bulk load requires an empty table");
  }
  // Validate everything before mutating, so a bad batch leaves the table
  // untouched.
  for (const Row& row : rows) {
    CPDB_RETURN_IF_ERROR(schema_.Validate(row));
  }
  // Extract each index's keys once; reused for the duplicate check here
  // and the index build below.
  std::vector<std::vector<Row>> index_keys(indexes_.size());
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    index_keys[ix].reserve(rows.size());
    for (const Row& row : rows) {
      index_keys[ix].push_back(ExtractKey(indexes_[ix], row));
    }
  }
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    if (!indexes_[ix].unique) continue;
    // Sort pointers, not rows, for the adjacency duplicate check.
    std::vector<const Row*> keys;
    keys.reserve(index_keys[ix].size());
    for (const Row& key : index_keys[ix]) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const Row* a, const Row* b) { return RowLess(*a, *b); });
    for (size_t i = 0; i + 1 < keys.size(); ++i) {
      if (!RowLess(*keys[i], *keys[i + 1])) {
        return Status::AlreadyExists(
            "duplicate key " + RowToString(*keys[i]) + " in unique index '" +
            indexes_[ix].name + "'");
      }
    }
  }
  std::vector<Rid> rids;
  rids.reserve(rows.size());
  std::string encoded;
  for (const Row& row : rows) {
    encoded.clear();
    EncodeRow(row, &encoded);
    auto rid = heap_.Insert(encoded);
    if (!rid.ok()) {
      // Schema validation can't see encoded size, so an oversized record
      // surfaces here; un-store the partial batch to keep the documented
      // no-side-effects contract (indexes are not built yet).
      for (const Rid& stored : rids) (void)heap_.Delete(stored);
      return rid.status();
    }
    rids.push_back(rid.value());
  }
  for (size_t ix = 0; ix < indexes_.size(); ++ix) {
    Index& idx = indexes_[ix];
    if (idx.kind == IndexKind::kBTree) {
      std::vector<std::pair<Row, Rid>> items;
      items.reserve(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        items.emplace_back(std::move(index_keys[ix][i]), rids[i]);
      }
      idx.btree->BulkLoad(std::move(items));
    } else {
      for (size_t i = 0; i < rows.size(); ++i) {
        idx.hash->Insert(std::move(index_keys[ix][i]), rids[i]);
      }
    }
  }
  if (journal_ != nullptr) {
    for (const Row& row : rows) journal_->NoteInsert(name_, row);
  }
  return rows.size();
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
  for (auto& idx : indexes_) {
    Row key = ExtractKey(idx, row);
    if (idx.kind == IndexKind::kBTree) {
      idx.btree->Erase(key, rid);
    } else {
      idx.hash->Erase(key, rid);
    }
  }
  if (journal_ != nullptr) journal_->NoteDelete(name_, row);
  return Status::OK();
}

Status Table::DeleteRowImage(const Row& row) {
  std::optional<Rid> victim;
  Status inner = Status::OK();
  auto probe = [&](const Rid& rid, const Row& candidate) {
    if (candidate == row) {
      victim = rid;
      return false;
    }
    return true;
  };
  if (!indexes_.empty()) {
    const Index& idx = indexes_.front();
    if (row.size() < schema_.NumColumns()) {
      return Status::InvalidArgument("row image too short for table '" +
                                     name_ + "'");
    }
    Row key = ExtractKey(idx, row);
    auto emit = [&](const Rid& rid) {
      auto fetched = Get(rid);
      if (!fetched.ok()) {
        inner = fetched.status();
        return false;
      }
      return probe(rid, fetched.value());
    };
    if (idx.kind == IndexKind::kBTree) {
      idx.btree->LookupEq(key, [&](const Row&, const Rid& rid) {
        return emit(rid);
      });
    } else {
      idx.hash->LookupEq(key, emit);
    }
    CPDB_RETURN_IF_ERROR(inner);
  } else {
    Scan(probe);
  }
  if (!victim.has_value()) {
    return Status::NotFound("no row equal to " + RowToString(row) +
                            " in table '" + name_ + "'");
  }
  return Delete(*victim);
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
  std::vector<Rid> doomed;
  Scan([&](const Rid& rid, const Row& row) {
    if (pred(row)) doomed.push_back(rid);
    return true;
  });
  size_t n = 0;
  for (const Rid& rid : doomed) {
    if (Delete(rid).ok()) ++n;
  }
  return n;
}

Result<size_t> Table::DeleteWhere(
    const std::string& index_name, const Row& key,
    const std::function<bool(const Row&)>& pred) {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  if (key.size() != idx->columns.size()) {
    return Status::InvalidArgument("key arity mismatch for index '" +
                                   index_name + "'");
  }
  // Collect first, delete after: Delete() mutates the index being probed.
  std::vector<Rid> doomed;
  Status inner = Status::OK();
  auto match = [&](const Rid& rid) {
    if (pred != nullptr) {
      auto row = Get(rid);
      if (!row.ok()) {
        inner = row.status();
        return false;
      }
      if (!pred(row.value())) return true;
    }
    doomed.push_back(rid);
    return true;
  };
  if (idx->kind == IndexKind::kBTree) {
    idx->btree->LookupEq(key, [&](const Row&, const Rid& rid) {
      return match(rid);
    });
  } else {
    idx->hash->LookupEq(key, match);
  }
  CPDB_RETURN_IF_ERROR(inner);
  size_t n = 0;
  for (const Rid& rid : doomed) {
    if (Delete(rid).ok()) ++n;
  }
  return n;
}

Result<size_t> Table::ApplyBatch(const WriteBatch& batch) {
  // ---- Validation phase: nothing below may mutate until it all passes.
  for (const WriteBatch::InsertOp& op : batch.inserts()) {
    CPDB_RETURN_IF_ERROR(schema_.Validate(op.row));
  }
  std::vector<Row> doomed_rows;
  doomed_rows.reserve(batch.deletes().size());
  {
    std::vector<Rid> rids;
    rids.reserve(batch.deletes().size());
    for (const WriteBatch::DeleteOp& op : batch.deletes()) {
      rids.push_back(op.rid);
    }
    std::sort(rids.begin(), rids.end());
    for (size_t i = 0; i + 1 < rids.size(); ++i) {
      if (rids[i] == rids[i + 1]) {
        return Status::InvalidArgument("rid " + rids[i].ToString() +
                                       " deleted twice in one batch");
      }
    }
    for (const WriteBatch::DeleteOp& op : batch.deletes()) {
      CPDB_ASSIGN_OR_RETURN(Row row, Get(op.rid));
      doomed_rows.push_back(std::move(row));
    }
  }
  // Unique constraints, evaluated against the post-batch state: a key is
  // free if absent from the index or freed by one of the batch's deletes.
  for (const auto& idx : indexes_) {
    if (!idx.unique) continue;
    // Sorted with a consumed mark, so each delete frees its key exactly
    // once and lookups stay logarithmic.
    std::vector<std::pair<Row, bool>> freed;
    freed.reserve(doomed_rows.size());
    for (const Row& row : doomed_rows) {
      freed.emplace_back(ExtractKey(idx, row), false);
    }
    std::sort(freed.begin(), freed.end(),
              [](const std::pair<Row, bool>& a,
                 const std::pair<Row, bool>& b) {
                return RowLess(a.first, b.first);
              });
    std::vector<Row> batch_keys;
    batch_keys.reserve(batch.inserts().size());
    for (const WriteBatch::InsertOp& op : batch.inserts()) {
      batch_keys.push_back(ExtractKey(idx, op.row));
    }
    {
      // In-batch duplicates: sort pointers, check adjacency (as BulkLoad).
      std::vector<const Row*> sorted;
      sorted.reserve(batch_keys.size());
      for (const Row& key : batch_keys) sorted.push_back(&key);
      std::sort(sorted.begin(), sorted.end(),
                [](const Row* a, const Row* b) { return RowLess(*a, *b); });
      for (size_t i = 0; i + 1 < sorted.size(); ++i) {
        if (!RowLess(*sorted[i], *sorted[i + 1])) {
          return Status::AlreadyExists(
              "duplicate key " + RowToString(*sorted[i]) +
              " in unique index '" + idx.name + "' within one batch");
        }
      }
    }
    for (const Row& key : batch_keys) {
      bool taken = false;
      if (idx.kind == IndexKind::kBTree) {
        idx.btree->LookupEq(key, [&](const Row&, const Rid&) {
          taken = true;
          return false;
        });
      } else {
        idx.hash->LookupEq(key, [&](const Rid&) {
          taken = true;
          return false;
        });
      }
      if (taken) {
        auto it = std::lower_bound(
            freed.begin(), freed.end(), key,
            [](const std::pair<Row, bool>& f, const Row& k) {
              return RowLess(f.first, k);
            });
        bool consumed = false;
        for (; it != freed.end() && !RowLess(key, it->first); ++it) {
          if (!it->second) {
            it->second = true;  // each delete frees its key once
            consumed = true;
            break;
          }
        }
        if (!consumed) {
          return Status::AlreadyExists("duplicate key " + RowToString(key) +
                                       " in unique index '" + idx.name +
                                       "'");
        }
      }
    }
  }

  // ---- Execution phase. Heap inserts first (the only step that can
  // still fail, on an oversized record) so a failure needs only the new
  // rows un-stored; deletes and index maintenance follow.
  std::vector<Rid> new_rids;
  new_rids.reserve(batch.inserts().size());
  std::string encoded;
  for (const WriteBatch::InsertOp& op : batch.inserts()) {
    encoded.clear();
    EncodeRow(op.row, &encoded);
    auto rid = heap_.Insert(encoded);
    if (!rid.ok()) {
      for (const Rid& stored : new_rids) (void)heap_.Delete(stored);
      return rid.status();
    }
    new_rids.push_back(rid.value());
  }
  for (const WriteBatch::DeleteOp& op : batch.deletes()) {
    CPDB_RETURN_IF_ERROR(heap_.Delete(op.rid));  // validated above
  }
  // Index maintenance, once per index: erase the doomed entries, then
  // feed the new entries as one sorted run.
  for (auto& idx : indexes_) {
    if (idx.kind == IndexKind::kBTree) {
      for (size_t i = 0; i < doomed_rows.size(); ++i) {
        idx.btree->Erase(ExtractKey(idx, doomed_rows[i]),
                         batch.deletes()[i].rid);
      }
      std::vector<std::pair<Row, Rid>> run;
      run.reserve(batch.inserts().size());
      for (size_t i = 0; i < batch.inserts().size(); ++i) {
        run.emplace_back(ExtractKey(idx, batch.inserts()[i].row),
                         new_rids[i]);
      }
      idx.btree->BulkUpsert(std::move(run));
    } else {
      for (size_t i = 0; i < doomed_rows.size(); ++i) {
        idx.hash->Erase(ExtractKey(idx, doomed_rows[i]),
                        batch.deletes()[i].rid);
      }
      for (size_t i = 0; i < batch.inserts().size(); ++i) {
        idx.hash->Insert(ExtractKey(idx, batch.inserts()[i].row),
                         new_rids[i]);
      }
    }
  }
  if (journal_ != nullptr) {
    // Deletes first: sequential replay of the journal must pass the same
    // unique-key checks this batch was validated under (net of its
    // deletes), so a delete+reinsert of one key replays cleanly.
    for (const Row& row : doomed_rows) journal_->NoteDelete(name_, row);
    for (const WriteBatch::InsertOp& op : batch.inserts()) {
      journal_->NoteInsert(name_, op.row);
    }
  }
  return batch.size();
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
  if (idx->kind != IndexKind::kBTree) {
    return Status::NotSupported("cursor scan requires a btree index");
  }
  if (spec.lower.size() > idx->columns.size() ||
      spec.eq.size() > idx->columns.size()) {
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
  if (spec.keys_only && spec.predicate != nullptr) {
    return Status::InvalidArgument("keys-only scan of '" + spec.index +
                                   "' cannot take a row predicate");
  }
  // Derive the start position: an explicit lower bound wins; otherwise an
  // equality prefix or string prefix names the first possible key. A
  // partial-arity bound compares as a prefix row, which sorts before
  // every full key extending it.
  const Row* start = nullptr;
  Row derived;
  if (!spec.lower.empty()) {
    start = &spec.lower;
  } else if (!spec.eq.empty()) {
    start = &spec.eq;
  } else if (!spec.prefix.empty()) {
    derived = Row{Datum(spec.prefix)};
    start = &derived;
  }
  cur.pos_ = start == nullptr ? idx->btree->SeekFirst()
                              : idx->btree->Seek(*start);
  cur.spec_ = std::move(spec);
  cur.done_ = !cur.pos_.Valid();
  return cur;
}

bool Table::Cursor::Next(Row* row, Rid* rid) {
  if (done_) return false;
  for (; pos_.Valid(); pos_.Advance()) {
    const Row& key = pos_.key();
    if (spec_.limit > 0 && produced_ >= spec_.limit) break;
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
      if (spec_.predicate != nullptr && !spec_.predicate(fetched.value())) {
        continue;
      }
      *row = std::move(fetched).value();
    }
    if (rid != nullptr) *rid = pos_.rid();
    pos_.Advance();
    ++produced_;
    return true;
  }
  done_ = true;
  return false;
}

size_t Table::Cursor::Next(std::vector<Row>* batch, size_t max) {
  batch->clear();
  Row row;
  while (batch->size() < max && Next(&row)) {
    batch->push_back(std::move(row));
  }
  return batch->size();
}

Status Table::MultiGet(
    const std::string& index_name, const std::vector<Row>& keys,
    const std::function<bool(size_t, const Rid&, const Row&)>& fn) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  Status inner = Status::OK();
  bool stop = false;
  for (size_t i = 0; i < keys.size() && !stop; ++i) {
    if (keys[i].size() != idx->columns.size()) {
      return Status::InvalidArgument("key arity mismatch for index '" +
                                     index_name + "'");
    }
    auto emit = [&](const Rid& rid) {
      auto row = Get(rid);
      if (!row.ok()) {
        inner = row.status();
        return false;
      }
      if (!fn(i, rid, row.value())) {
        stop = true;
        return false;
      }
      return true;
    };
    if (idx->kind == IndexKind::kBTree) {
      idx->btree->LookupEq(keys[i], [&](const Row&, const Rid& rid) {
        return emit(rid);
      });
    } else {
      idx->hash->LookupEq(keys[i], emit);
    }
    CPDB_RETURN_IF_ERROR(inner);
  }
  return Status::OK();
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
  Status inner = Status::OK();
  auto emit = [&](const Rid& rid) {
    auto row = Get(rid);
    if (!row.ok()) {
      inner = row.status();
      return false;
    }
    return fn(rid, row.value());
  };
  if (idx->kind == IndexKind::kBTree) {
    idx->btree->LookupEq(key, [&](const Row&, const Rid& rid) {
      return emit(rid);
    });
  } else {
    idx->hash->LookupEq(key, emit);
  }
  return inner;
}

Status Table::ScanPrefix(
    const std::string& index_name, const std::string& prefix,
    const std::function<bool(const Rid&, const Row&)>& fn) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  if (idx->kind != IndexKind::kBTree) {
    return Status::NotSupported("prefix scan requires a btree index");
  }
  Status inner = Status::OK();
  idx->btree->ScanFrom({Datum(prefix)}, [&](const Row& key, const Rid& rid) {
    if (key.empty() || !key[0].is_string()) return true;
    if (!StartsWith(key[0].AsString(), prefix)) return false;  // done
    auto row = Get(rid);
    if (!row.ok()) {
      inner = row.status();
      return false;
    }
    return fn(rid, row.value());
  });
  return inner;
}

Status Table::ScanIndex(
    const std::string& index_name,
    const std::function<bool(const Rid&, const Row&)>& fn) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  if (idx->kind != IndexKind::kBTree) {
    return Status::NotSupported("ordered scan requires a btree index");
  }
  Status inner = Status::OK();
  idx->btree->ScanAll([&](const Row&, const Rid& rid) {
    auto row = Get(rid);
    if (!row.ok()) {
      inner = row.status();
      return false;
    }
    return fn(rid, row.value());
  });
  return inner;
}

Result<Row> Table::LastKey(const std::string& index_name) const {
  const Index* idx = FindIndex(index_name);
  if (idx == nullptr) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  if (idx->kind != IndexKind::kBTree) {
    return Status::NotSupported("max-key read requires a btree index");
  }
  BTree::Cursor last = idx->btree->SeekLast();
  if (!last.Valid()) {
    return Status::NotFound("table '" + name_ + "' is empty");
  }
  return last.key();
}

}  // namespace cpdb::relstore
