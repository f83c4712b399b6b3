#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relstore/btree.h"
#include "relstore/cost_model.h"
#include "relstore/datum.h"
#include "relstore/hash_index.h"
#include "relstore/heap_file.h"
#include "relstore/journal.h"
#include "relstore/schema.h"
#include "relstore/write_batch.h"
#include "util/result.h"

namespace cpdb::relstore {

/// Declarative description of an index-backed ordered scan, evaluated
/// server-side by Table::OpenScan. The scan starts at the smallest index
/// entry >= the derived lower bound and streams rows in index-key order
/// until a stop condition fires:
///
///  - `eq`: stop once the leading eq.size() key columns differ from `eq`
///    (equality on a key prefix — point/dup lookups and composite-key
///    range restriction);
///  - `prefix`: stop once the (string) first key column no longer starts
///    with `prefix` (path-descendant scans);
///  - `limit`: stop after `limit` rows (0 = unlimited).
///
/// `lower` (inclusive, may name only a prefix of the key columns)
/// overrides the start position; when empty it is derived from `eq` /
/// `prefix`. `predicate` is a residual row filter pushed down into the
/// scan: rejected rows are never surfaced to the client (and never
/// charged as transferred rows by callers that model transfer cost).
struct ScanSpec {
  std::string index;
  Row lower;
  Row eq;
  std::string prefix;
  std::function<bool(const Row&)> predicate;
  size_t limit = 0;
  /// MVCC-lite visibility bound (the service layer's snapshot reads):
  /// when `visible_col` >= 0, rows whose int64 column `visible_col`
  /// exceeds `visible_max` are invisible to this scan — a reader pinned
  /// at a commit watermark never sees younger versions. Filtered at the
  /// read path like `predicate` (never surfaced, never charged as
  /// transferred). Non-int values in the bound column stay visible.
  /// `visible_col` must be one of the index's columns: the bound is
  /// decided on the index key, before any heap read.
  int visible_col = -1;
  int64_t visible_max = 0;
  /// Index-only scan: the cursor yields each entry's index key (the
  /// index columns, in index order) in place of its row and never reads
  /// the heap. OpenScan rejects a keys-only spec that carries a
  /// `predicate`, which would need the row.
  bool keys_only = false;
};

/// A heap-backed table with optional unique constraint and secondary
/// indexes. Rows live in slotted pages (HeapFile); indexes map extracted
/// key columns to Rids and are maintained on every insert/delete.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Adds an index over `columns` (by position). `unique` makes inserts
  /// fail on duplicate keys — e.g. the provenance store's {Tid, Loc} key.
  /// Must be called while the table is empty.
  Status CreateIndex(const std::string& index_name,
                     std::vector<int> columns, IndexKind kind,
                     bool unique = false);

  /// Declarative descriptions of every index, in creation order — what
  /// checkpoints persist so recovery can rebuild the same access paths.
  std::vector<IndexDef> IndexDefs() const;

  /// Attaches (or detaches, with nullptr) the durability journal. Every
  /// successful mutation is reported to it; see relstore/journal.h.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Validates and stores a row, maintaining all indexes.
  Result<Rid> Insert(const Row& row);

  /// Bulk variant of Insert for initial loads: validates and stores every
  /// row, then builds each B+tree index with one sorted bulk load instead
  /// of per-row insertions. The table must be empty. Fails without side
  /// effects on a schema or unique-constraint violation (duplicates are
  /// detected within the batch). Returns the number of rows stored.
  Result<size_t> BulkLoad(const std::vector<Row>& rows);

  /// Applies a mixed insert/delete batch as one logical client statement.
  /// The whole batch is validated up front — schema of every insert,
  /// existence and uniqueness of every delete Rid, and unique-key
  /// constraints evaluated against the table state net of the batch's own
  /// deletes — so a failing batch leaves the table completely untouched.
  /// Each index is then maintained once per batch: B+-trees take the
  /// batch's erases followed by one sorted-run BulkUpsert of the new
  /// keys. Returns the number of rows written + removed. Cost accounting
  /// stays with the caller (one ChargeWrite per ApplyBatch), like every
  /// other Table method.
  Result<size_t> ApplyBatch(const WriteBatch& batch);

  /// Reads the row at `rid`.
  Result<Row> Get(const Rid& rid) const;

  /// Deletes the row at `rid`, maintaining all indexes.
  Status Delete(const Rid& rid);

  /// Deletes ONE row equal to `row` (identical rows are interchangeable,
  /// so any match reproduces the same logical state). Routed through the
  /// first index when one exists — O(log n), no heap scan. Exists for
  /// write-ahead-log recovery, which journals deletes by row image
  /// because Rids are not stable across checkpoint BulkLoad restores.
  /// NotFound when no equal row exists.
  Status DeleteRowImage(const Row& row);

  /// Deletes every row matching `pred`; returns the count removed. Scans
  /// the full heap — when the predicate includes an equality on an
  /// indexed key, prefer the index-routed overload below.
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred);

  /// Index-routed DeleteWhere: deletes every row whose `index_name` key
  /// equals `key` (full key arity) and that passes the residual `pred`
  /// (nullptr = delete all matches). Only the matching rows are ever
  /// read — no heap scan — so the row cost is O(matches), not O(table).
  /// Returns the count removed.
  Result<size_t> DeleteWhere(const std::string& index_name, const Row& key,
                             const std::function<bool(const Row&)>& pred =
                                 nullptr);

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

    /// Fills `*batch` (cleared first; caller-owned, capacity reused
    /// across calls) with up to `max` rows. Returns the number of rows
    /// produced; 0 means the scan is over (or failed — check status()).
    size_t Next(std::vector<Row>* batch, size_t max);

    /// Single-row variant; `rid` is optional.
    bool Next(Row* row, Rid* rid = nullptr);

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
    size_t produced_ = 0;
    bool done_ = true;
    Status status_;
  };

  /// Opens a streaming scan. Fails if the named index is missing, is not
  /// a B+-tree, the spec's bounds exceed the index key arity, its
  /// `visible_col` is not a key column, or a keys-only spec carries a
  /// `predicate`.
  Result<Cursor> OpenScan(ScanSpec spec) const;

  /// Batched point lookups: one logical client call resolving every key
  /// (arity must match the index) through the named index. Emits
  /// fn(key_index, rid, row) for each match, grouped by key in the order
  /// given; stops early when `fn` returns false. Works on both B+-tree
  /// and hash indexes.
  Status MultiGet(const std::string& index_name, const std::vector<Row>& keys,
                  const std::function<bool(size_t, const Rid&, const Row&)>&
                      fn) const;

  /// Equality lookup through the named index.
  Status LookupEq(const std::string& index_name, const Row& key,
                  const std::function<bool(const Rid&, const Row&)>& fn) const;

  /// Ordered scan of rows whose (string) first index column starts with
  /// `prefix`; BTree indexes only. Used for path-descendant queries.
  Status ScanPrefix(const std::string& index_name, const std::string& prefix,
                    const std::function<bool(const Rid&, const Row&)>& fn)
      const;

  /// Ordered scan of the whole index.
  Status ScanIndex(const std::string& index_name,
                   const std::function<bool(const Rid&, const Row&)>& fn)
      const;

  /// Largest key in the named B+-tree index — one O(log n) rightmost
  /// descent, no heap reads. NotFound when the table is empty.
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
    IndexKind kind;
    bool unique;
    std::unique_ptr<BTree> btree;
    std::unique_ptr<HashIndex> hash;
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
