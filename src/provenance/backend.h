#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <memory>

#include "provenance/prov_record.h"
#include "relstore/database.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace cpdb::provenance {

class ProvBackend;

/// Which fields of each record a ProvCursor delivers. kRecord decodes the
/// whole record; kTid fills only ProvRecord::tid (op, loc and src stay
/// default) and reads it from the (Loc, Tid) index key, so no heap row is
/// fetched, decoded or path-parsed. Only the Loc-side scans that GetMod
/// drains offer kTid.
enum class ProvFields { kRecord, kTid };

/// Streaming read cursor over the provenance table — the client side of a
/// server-held scan, fed straight from the B+-tree leaf chain with no
/// materialized result set.
///
/// Round-trip accounting: each Next(batch, max) fetch is ONE modelled
/// client/server round trip, charged with the rows it actually moves
/// (plus, in unindexed mode, the server-side full-table scan on the first
/// fetch — the paper's "worst-case behavior" setup). Draining a scan
/// whose result fits in one batch therefore costs exactly one round trip,
/// like the one-shot queries cursors replaced; a large result streamed
/// in k batches costs k. The single-record Next(ProvRecord*) refills an
/// internal buffer in kDefaultBatch chunks and adds no extra trips. A
/// kTid cursor moves the same rows in the same fetches and is charged
/// exactly like a kRecord one: the field selector changes what the client
/// decodes, not what the modelled statement returns.
///
/// Ordering: every cursor yields records in its index-key order — ScanAll
/// by (Tid, Loc), the Loc-side scans by (Loc, Tid) — where Loc compares
/// as its slash-joined string rendering (the form the index stores). The
/// concrete guarantee is documented on each ProvBackend factory.
///
/// Consistency: the cursor borrows a position inside the store's indexes;
/// any provenance write invalidates it. Readers drain cursors before the
/// next tracked operation (the editor is the only writer, and queries run
/// between transactions), matching BTree::Cursor's single-writer
/// contract.
class ProvCursor {
 public:
  static constexpr size_t kDefaultBatch = 256;
  /// Fetch size that drains the whole scan in one round trip.
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

  /// An exhausted cursor; live ones come from ProvBackend.
  ProvCursor() = default;

  /// Fetches up to `max` records into `*batch` (cleared first; the
  /// caller owns the buffer and its capacity is reused across calls).
  /// Returns the number fetched; 0 means end-of-scan or error (check
  /// status()). Each call that reaches the server is one round trip.
  size_t Next(std::vector<ProvRecord>* batch, size_t max = kDefaultBatch);

  /// Single-record convenience over an internal kDefaultBatch buffer.
  bool Next(ProvRecord* rec);

  bool done() const { return exhausted_ && buf_pos_ >= buf_.size(); }

  /// First decode/storage error hit by the scan (the cursor stops there).
  const Status& status() const { return status_; }

  /// Round trips this cursor has issued so far.
  size_t RoundTrips() const { return round_trips_; }

 private:
  friend class ProvBackend;
  ProvCursor(relstore::CostModel* sink, const relstore::Table* prov,
             bool use_indexes, ProvFields fields)
      : sink_(sink), prov_(prov), use_indexes_(use_indexes),
        fields_(fields), exhausted_(false) {}

  /// Appends one contiguous index range to the scan; segments are drained
  /// in the order added (a multi-range statement is still one statement).
  /// A kTid cursor opens every segment keys-only.
  void AddSegment(relstore::ScanSpec spec);

  relstore::CostModel* sink_ = nullptr;
  const relstore::Table* prov_ = nullptr;
  bool use_indexes_ = true;
  ProvFields fields_ = ProvFields::kRecord;
  bool first_fetch_ = true;
  bool exhausted_ = true;
  Status status_;
  size_t round_trips_ = 0;
  std::vector<relstore::Table::Cursor> segments_;
  size_t seg_ = 0;
  // Buffer behind the single-record Next().
  std::vector<ProvRecord> buf_;
  size_t buf_pos_ = 0;
};

/// Persistence layer for provenance stores: a Prov(Tid, Op, Loc, Src)
/// table plus a TxnMeta table inside a relstore Database — the stand-in
/// for the MySQL provenance store of the paper's CPDB.
///
/// Reads are cursor- and batch-oriented, with one API: the Scan*
/// factories stream ordered ranges off the B+-tree leaf chain, and
/// LookupMany resolves a whole batch of (tid, loc) points — a single
/// point is a batch of one — in one round trip. A caller that wants the
/// whole result at once drains a cursor with Next(&batch,
/// ProvCursor::kNoLimit), which is still one round trip. When
/// `use_indexes` is false, the first fetch of every statement is
/// charged as a full table scan, reproducing the paper's
/// query-time experiment setup ("No indexing was performed on the
/// provenance relation, so these query times represent worst-case
/// behavior", Section 4.1); results are identical either way.
///
/// Thread safety (the shared-table contract of the service layer): a
/// ProvBackend handle itself holds no locks — its fields are borrowed
/// pointers fixed at construction (or at View() assignment) plus the
/// `use_indexes` flag, and the *tables* behind them are the shared state.
/// Synchronization is owned by service::SharedLatch one layer up:
///
///  * WriteRecords / WriteTxnMeta mutate the shared tables and must run
///    inside the engine's exclusive grant (commit closures do — they
///    execute on the CommitQueue leader, which holds the latch). Within
///    that grant the backend adds its own serialization: a write mutex
///    shared by the owning handle and every View(), so whole batches
///    serialize even for a caller that writes outside the engine's
///    latch;
///  * every Scan*/LookupMany call and the cursors it returns must
///    run inside a shared grant, drained before the grant is released;
///  * cost charges land on `cost_sink()`, which the service layer points
///    at a session-private CostModel precisely so concurrent readers
///    never race on one model (CostModel is deliberately lock-free and
///    NOT thread-safe; see relstore::CostAggregate).
///
/// These rules cross an ownership boundary the thread-safety analysis
/// cannot see through (the latch lives in the engine, not here), so they
/// are enforced one level down — the latch and queue internals are
/// GUARDED_BY-annotated — and by tools/lint/cpdb_lint.py, which rejects
/// direct Prov/TxnMeta table writes outside WriteRecords/WriteTxnMeta.
class ProvBackend {
 public:
  /// Creates the Prov and TxnMeta tables inside `db`. The Prov table has
  /// a unique btree index on {Tid, Loc} (the paper's key) and a btree on
  /// {Loc, Tid} for descendant scans — the "natural candidates for
  /// indexing" the paper names, with Tid appended to make every scan's
  /// ordering deterministic.
  explicit ProvBackend(relstore::Database* db, bool use_indexes = true);

  /// A second handle onto `shared`'s tables whose modelled charges land
  /// on `sink` instead of the database's own CostModel. This is how the
  /// service layer gives each concurrent session race-free accounting:
  /// CostModel is not thread-safe, so sessions reading the shared store
  /// in parallel must each charge a private model (aggregated later via
  /// relstore::CostAggregate). The view borrows `shared`'s tables — it
  /// performs the same reads and writes against the same store.
  static ProvBackend View(ProvBackend* shared, relstore::CostModel* sink);

  /// A detached handle (no tables, no sink) — only a valid assignment
  /// target for View(). Every other use is a programming error.
  ProvBackend() = default;

  /// Where this handle's modelled charges land: the owning database's
  /// CostModel by default, a session-private model for service views.
  relstore::CostModel* cost_sink() { return sink_; }

  // ----- Writes (one round trip each) -------------------------------------

  /// Appends records in one client call — a single batched statement
  /// (Table::InsertBatch) whose rows ride one modelled write round trip,
  /// charged on the write-side counters. Fails atomically if any
  /// {Tid, Loc} repeats: nothing is written. Group commit (ProvStore::
  /// TrackBatch, TxnStore::Commit) funnels a whole transaction's or
  /// script's records through one call here.
  Status WriteRecords(const std::vector<ProvRecord>& records);

  /// Records transaction metadata.
  Status WriteTxnMeta(const TxnMeta& meta);

  // ----- Streaming reads (one round trip per batch fetched) ---------------

  /// Everything, ordered by (Tid, Loc) — the table-key order the full
  /// table prints in (Figure 5).
  ProvCursor ScanAll();

  /// All records at exactly `loc`, ordered by Tid.
  ProvCursor ScanAtLoc(const tree::Path& loc);

  /// Records whose Loc equals `loc` or lies strictly below it, ordered by
  /// (Loc, Tid) — the subtree range scan behind getMod. `fields` selects
  /// whole records or tids only (see ProvFields).
  ProvCursor ScanUnder(const tree::Path& loc,
                       ProvFields fields = ProvFields::kRecord);

  /// The canonical ancestor fetch: records at `loc` (when `include_self`)
  /// and at every proper ancestor that can carry provenance (depth >= 2;
  /// update targets sit strictly inside a database, so the universe root
  /// and database roots never appear as a record's Loc). One multi-range
  /// statement ordered by (Loc, Tid) — i.e. shallowest ancestor first —
  /// so the whole ancestor chain costs one round trip per batch, not one
  /// per level. `fields` as for ScanUnder.
  ProvCursor ScanAtLocOrAncestors(const tree::Path& loc, bool include_self,
                                  ProvFields fields = ProvFields::kRecord);

  // ----- Batched point lookups (one round trip) ---------------------------

  /// All records with the given tid at any of `locs` — the SQL
  /// "(Tid, Loc) IN (...)" statement. One round trip; results grouped in
  /// the order of `locs`.
  Result<std::vector<ProvRecord>> LookupMany(
      int64_t tid, const std::vector<tree::Path>& locs);

  // ----- Stats (no cost charged; out-of-band instrumentation) -------------

  size_t RowCount() const;
  size_t PhysicalBytes() const;

  /// Largest committed Tid in the store, or 0 when it is empty — what a
  /// session reopening a recovered durable store passes (plus one) as
  /// EditorOptions::first_tid so transaction numbering continues across
  /// restarts. Out-of-band like the stats above: no cost charged.
  int64_t MaxTid() const;

  relstore::Database* db() { return db_; }
  bool use_indexes() const { return use_indexes_; }
  void set_use_indexes(bool v) { use_indexes_ = v; }

  /// Bounds every read through THIS handle to records with Tid <= `tid`
  /// (-1 = unbounded, the default). The service layer stamps each
  /// session's view with its snapshot watermark, so a session queries
  /// provenance as of the state its target snapshot shows — the
  /// relational half of the session's snapshot (the tree half is its
  /// copy-on-write clone). Pushed into the relstore scan as
  /// ScanSpec::visible_col, not filtered client-side; out-of-band stats
  /// (RowCount, MaxTid) stay unbounded.
  void set_read_watermark(int64_t tid) { read_watermark_ = tid; }
  int64_t read_watermark() const { return read_watermark_; }

  static const char* kProvTable;
  static const char* kMetaTable;

 private:
  friend class ProvCursor;

  ProvCursor MakeCursor(ProvFields fields = ProvFields::kRecord) {
    return ProvCursor(sink_, prov_, use_indexes_, fields);
  }

  /// Applies this handle's read watermark to a scan about to be issued
  /// (Tid is column 0 of the Prov table and part of both index keys, so
  /// relstore evaluates the bound on the key before any heap read).
  relstore::ScanSpec Bounded(relstore::ScanSpec spec) const {
    if (read_watermark_ >= 0) {
      spec.visible_col = 0;
      spec.visible_max = read_watermark_;
    }
    return spec;
  }
  static Result<ProvRecord> FromRow(const relstore::Row& row);
  /// The Prov row of `rec`, rendering each path once; adds the record's
  /// modelled payload bytes to `*bytes`.
  static relstore::Row ToRow(const ProvRecord& rec, size_t* bytes);

  relstore::Database* db_ = nullptr;
  relstore::Table* prov_ = nullptr;
  relstore::Table* meta_ = nullptr;
  bool use_indexes_ = true;
  relstore::CostModel* sink_ = nullptr;  ///< defaults to &db_->cost()
  int64_t read_watermark_ = -1;  ///< per-handle snapshot bound; -1 = all
  /// Serializes table mutations across this handle and all its Views —
  /// the backend's own write gate (see the thread-safety contract above).
  /// shared_ptr so View-copies share the owner's mutex; null only on a
  /// detached handle.
  std::shared_ptr<Mutex> write_mu_;
};

}  // namespace cpdb::provenance
