#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relstore/btree.h"
#include "relstore/cost_model.h"
#include "relstore/datum.h"
#include "relstore/heap_file.h"
#include "relstore/journal.h"
#include "relstore/schema.h"
#include "util/result.h"

namespace cpdb::relstore {

/// Declarative description of an index-backed ordered scan, evaluated
/// server-side by Table::OpenScan. The scan starts at the smallest index
/// entry >= the bound `eq` (or `prefix`) names and streams rows in
/// index-key order until a stop condition fires:
///
///  - `eq`: stop once the leading eq.size() key columns differ from `eq`
///    (equality on a key prefix — point/dup lookups and composite-key
///    range restriction);
///  - `prefix`: stop once the (string) first key column no longer starts
///    with `prefix` (path-descendant scans).
struct ScanSpec {
  std::string index;
  Row eq;
  std::string prefix;
  /// MVCC-lite visibility bound (the service layer's snapshot reads):
  /// when `visible_col` >= 0, rows whose int64 column `visible_col`
  /// exceeds `visible_max` are invisible to this scan — a reader bounded
  /// at a commit watermark never sees rows committed after it. Never
  /// surfaced, so never charged as transferred. Non-int values in the
  /// bound column stay visible. `visible_col` must be one of the index's columns: the
  /// bound is decided on the index key, before any heap read.
  int visible_col = -1;
  int64_t visible_max = 0;
  /// Index-only scan: the cursor yields each entry's index key (the
  /// index columns, in index order) in place of its row and never reads
  /// the heap.
  bool keys_only = false;
};

/// A heap-backed table with optional unique constraints and secondary
/// B+-tree indexes. Rows live in slotted pages (HeapFile); indexes map
/// extracted key columns to Rids and are maintained on every
/// insert/delete.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Adds a B+-tree index over `columns` (by position). `unique` makes
  /// inserts fail on duplicate keys — e.g. the provenance store's
  /// {Tid, Loc} key. Must be called while the table is empty.
  Status CreateIndex(const std::string& index_name, std::vector<int> columns,
                     bool unique = false);

  /// Declarative descriptions of every index, in creation order — what
  /// checkpoints persist so recovery can rebuild the same access paths.
  std::vector<IndexDef> IndexDefs() const;

  /// Attaches (or detaches, with nullptr) the durability journal. Every
  /// successful mutation is reported to it; see relstore/journal.h.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// OK if Insert would store `row` but for its unique keys: the schema
  /// check, then InvalidArgument "record larger than page" when the row's
  /// encoding exceeds one heap page (Page::kMaxRecordSize). A caller that
  /// replaces a stored row checks the new one here before deleting the old.
  Status CheckRow(const Row& row) const;

  /// Checks (CheckRow) and stores a row, maintaining all indexes.
  Result<Rid> Insert(const Row& row);

  /// Inserts `rows` as one logical client statement. The whole batch is
  /// validated up front — CheckRow on every row, and each unique key
  /// against the table and the rest of the batch — so a failing batch
  /// leaves the table untouched. Each index then absorbs the batch as one
  /// sorted-run BTree::BulkUpsert, which packs an empty index into full
  /// leaves: initial loads and checkpoint restores are a batch into an
  /// empty table. Cost accounting stays with the caller (one ChargeWrite
  /// per batch), like every other Table method.
  Status InsertBatch(const std::vector<Row>& rows);

  /// Reads the row at `rid`.
  Result<Row> Get(const Rid& rid) const;

  /// Deletes the row at `rid`, maintaining all indexes.
  Status Delete(const Rid& rid);

  /// Deletes ONE row equal to `row` (identical rows are interchangeable,
  /// so any match reproduces the same logical state). Routed through the
  /// first index when one exists — O(log n), no heap scan. Exists for
  /// write-ahead-log recovery, which journals deletes by row image
  /// because Rids are not stable across checkpoint restores.
  /// NotFound when no equal row exists.
  Status DeleteRowImage(const Row& row);

  /// Full scan in storage order; stops early when `fn` returns false.
  void Scan(const std::function<bool(const Rid&, const Row&)>& fn) const;

  /// Streaming cursor over one ScanSpec, pulling rows straight off the
  /// B+-tree leaf chain (no materialized result set). Obtained from
  /// OpenScan().
  ///
  /// Consistency: the cursor borrows a position inside the index; any
  /// mutation of the table invalidates it (same single-writer contract as
  /// BTree::Cursor). Rows are produced in index-key order; a keys-only
  /// scan produces the index keys themselves.
  class Cursor {
   public:
    /// An exhausted cursor; OpenScan returns a live one.
    Cursor() = default;

    /// Produces the next row (or key, for a keys-only scan) into `*row`.
    /// False means the scan is over (or failed — check status()).
    bool Next(Row* row);

    /// True once the scan has produced its last row.
    bool done() const { return done_; }

    /// First row-decode error hit by the scan, if any (the cursor stops
    /// there).
    const Status& status() const { return status_; }

   private:
    friend class Table;
    const Table* table_ = nullptr;
    ScanSpec spec_;
    /// Position of spec_.visible_col within the index key; -1 = unbounded.
    int visible_key_pos_ = -1;
    BTree::Cursor pos_;
    bool done_ = true;
    Status status_;
  };

  /// Opens a streaming scan. Fails if the named index is missing, the
  /// spec's `eq` exceeds the index key arity, or its `visible_col` is not
  /// a key column.
  Result<Cursor> OpenScan(ScanSpec spec) const;

  /// Equality lookup through the named index; `key` must have the
  /// index's full arity. Calls `fn` for each matching row until it
  /// returns false.
  Status LookupEq(const std::string& index_name, const Row& key,
                  const std::function<bool(const Rid&, const Row&)>& fn) const;

  /// Largest key in the named index — one O(log n) rightmost descent, no
  /// heap reads. NotFound when the table is empty.
  Result<Row> LastKey(const std::string& index_name) const;

  size_t RowCount() const { return heap_.RecordCount(); }

  /// Disk-style physical footprint (pages), as reported in Figure 8.
  size_t PhysicalBytes() const { return heap_.PhysicalBytes(); }

  /// Bytes of live row payload.
  size_t LiveBytes() const { return heap_.LiveBytes(); }

 private:
  struct Index {
    std::string name;
    std::vector<int> columns;
    bool unique;
    std::unique_ptr<BTree> btree;
  };

  Row ExtractKey(const Index& idx, const Row& row) const;
  const Index* FindIndex(const std::string& name) const;

  std::string name_;
  Schema schema_;
  HeapFile heap_;
  std::vector<Index> indexes_;
  Journal* journal_ = nullptr;
};

}  // namespace cpdb::relstore
