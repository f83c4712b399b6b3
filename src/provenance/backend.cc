#include "provenance/backend.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace cpdb::provenance {

const char* ProvBackend::kProvTable = "Prov";
const char* ProvBackend::kMetaTable = "TxnMeta";

using relstore::ColumnType;
using relstore::Datum;
using relstore::Row;
using relstore::ScanSpec;
using relstore::Schema;

namespace {

/// Where a kTid cursor finds the tid: it scans only idx_loc_tid, whose
/// keys are (Loc, Tid).
constexpr size_t kTidInLocKey = 1;

/// True if the table carries an index matching `want` exactly — name,
/// columns, and uniqueness. Name alone is not enough: a foreign index
/// merely NAMED pk_tid_loc would silently break the unique-key and
/// cursor-ordering contracts.
bool HasIndex(const relstore::Table& table,
              const relstore::IndexDef& want) {
  for (const relstore::IndexDef& def : table.IndexDefs()) {
    if (def.name == want.name) {
      return def.columns == want.columns && def.unique == want.unique;
    }
  }
  return false;
}

/// Hard abort (active in all build types, like BTree::CheckInvariants)
/// when an adopted table is not ours: silently adopting a foreign "Prov"
/// would surface as baffling write errors far from the construction
/// site, and release builds strip assert().
void CheckAdopted(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr,
                 "ProvBackend: existing table is not a provenance store "
                 "(%s)\n",
                 what);
    std::abort();
  }
}

}  // namespace

ProvBackend ProvBackend::View(ProvBackend* shared,
                              relstore::CostModel* sink) {
  ProvBackend view;
  view.db_ = shared->db_;
  view.prov_ = shared->prov_;
  view.meta_ = shared->meta_;
  view.use_indexes_ = shared->use_indexes_;
  view.sink_ = sink;
  view.write_mu_ = shared->write_mu_;
  return view;
}

ProvBackend::ProvBackend(relstore::Database* db, bool use_indexes)
    : db_(db), use_indexes_(use_indexes), sink_(&db->cost()),
      write_mu_(std::make_shared<Mutex>()) {
  Schema prov_schema({{"Tid", ColumnType::kInt64, false},
                      {"Op", ColumnType::kString, false},
                      {"Loc", ColumnType::kString, false},
                      {"Src", ColumnType::kString, true}});
  // A recovered durable database already holds the provenance tables
  // (recreated by the checkpoint/log replay, indexes included); adopt
  // them so reopening a store resumes where the last session committed —
  // but only if they really are OUR tables: adopting a stranger named
  // "Prov" would surface as baffling write errors far from here.
  auto existing_prov = db_->GetTable(kProvTable);
  if (existing_prov.ok()) {
    prov_ = existing_prov.value();
    CheckAdopted(prov_->schema() == prov_schema, "Prov schema mismatch");
    CheckAdopted(HasIndex(*prov_, {"pk_tid_loc", {0, 2}, /*unique=*/true}),
                 "Prov pk_tid_loc missing or mismatched");
    CheckAdopted(
        HasIndex(*prov_, {"idx_loc_tid", {2, 0}, /*unique=*/false}),
        "Prov idx_loc_tid missing or mismatched");
  } else {
    auto prov = db_->CreateTable(kProvTable, std::move(prov_schema));
    assert(prov.ok());
    prov_ = prov.value();
    // {Tid, Loc} is the table key (paper Section 2.1); Loc and Tid are
    // the "natural candidates for indexing" the paper names. Both indexes
    // carry the full key so every cursor's ordering is deterministic: the
    // primary yields (Tid, Loc), the secondary (Loc, Tid).
    Status st = prov_->CreateIndex("pk_tid_loc", {0, 2}, /*unique=*/true);
    assert(st.ok());
    st = prov_->CreateIndex("idx_loc_tid", {2, 0});
    assert(st.ok());
    (void)st;
  }

  Schema meta_schema({{"Tid", ColumnType::kInt64, false},
                      {"User", ColumnType::kString, true},
                      {"CommitSeq", ColumnType::kInt64, false},
                      {"Note", ColumnType::kString, true}});
  auto existing_meta = db_->GetTable(kMetaTable);
  if (existing_meta.ok()) {
    meta_ = existing_meta.value();
    CheckAdopted(meta_->schema() == meta_schema, "TxnMeta schema mismatch");
    CheckAdopted(HasIndex(*meta_, {"pk_tid", {0}, /*unique=*/true}),
                 "TxnMeta pk_tid missing or mismatched");
  } else {
    auto meta = db_->CreateTable(kMetaTable, std::move(meta_schema));
    assert(meta.ok());
    meta_ = meta.value();
    Status st = meta_->CreateIndex("pk_tid", {0}, /*unique=*/true);
    assert(st.ok());
    (void)st;
  }
}

Row ProvBackend::ToRow(const ProvRecord& rec, size_t* bytes) {
  std::string loc = rec.loc.ToString();
  std::string src = rec.src.ToString();
  // The modelled payload: both rendered paths plus a fixed 16 bytes.
  *bytes += loc.size() + src.size() + 16;
  return Row{Datum(rec.tid), Datum(std::string(1, ProvOpChar(rec.op))),
             Datum(std::move(loc)),
             rec.op == ProvOp::kCopy ? Datum(std::move(src)) : Datum()};
}

Result<ProvRecord> ProvBackend::FromRow(const Row& row) {
  ProvRecord rec;
  rec.tid = row[0].AsInt();
  auto op = ProvOpFromChar(row[1].AsString().empty() ? '?'
                                                     : row[1].AsString()[0]);
  if (!op.has_value()) {
    return Status::Internal("corrupt Op column: " + row[1].ToString());
  }
  rec.op = *op;
  CPDB_ASSIGN_OR_RETURN(rec.loc, tree::Path::Parse(row[2].AsString()));
  if (!row[3].is_null()) {
    CPDB_ASSIGN_OR_RETURN(rec.src, tree::Path::Parse(row[3].AsString()));
  }
  return rec;
}

// ----- ProvCursor ----------------------------------------------------------

void ProvCursor::AddSegment(relstore::ScanSpec spec) {
  spec.keys_only = fields_ == ProvFields::kTid;
  auto cur = prov_->OpenScan(std::move(spec));
  if (!cur.ok()) {
    status_ = cur.status();
    return;
  }
  segments_.push_back(std::move(cur).value());
}

size_t ProvCursor::Next(std::vector<ProvRecord>* batch, size_t max) {
  batch->clear();
  if (exhausted_ || !status_.ok() || max == 0) return 0;
  Row row;
  while (batch->size() < max && seg_ < segments_.size()) {
    relstore::Table::Cursor& cur = segments_[seg_];
    if (!cur.Next(&row)) {
      if (!cur.status().ok()) {
        status_ = cur.status();
        break;
      }
      ++seg_;  // segment drained; the statement continues with the next
      continue;
    }
    if (fields_ == ProvFields::kTid) {
      batch->emplace_back().tid = row[kTidInLocKey].AsInt();
      continue;
    }
    auto rec = ProvBackend::FromRow(row);
    if (!rec.ok()) {
      status_ = rec.status();
      break;
    }
    batch->push_back(std::move(rec).value());
  }
  if (seg_ >= segments_.size() || !status_.ok()) exhausted_ = true;
  // One round trip per fetch that reaches the server. An empty statement
  // (no segments — e.g. an ancestor scan of a too-shallow path) is never
  // sent and costs nothing. In unindexed mode the first fetch pays the
  // server-side full-table scan.
  if (!segments_.empty()) {
    size_t rows = batch->size();
    if (first_fetch_ && !use_indexes_) rows = prov_->RowCount();
    sink_->ChargeCall(rows);
    ++round_trips_;
    first_fetch_ = false;
  }
  return batch->size();
}

bool ProvCursor::Next(ProvRecord* rec) {
  if (buf_pos_ >= buf_.size()) {
    if (exhausted_ || !status_.ok()) return false;
    Next(&buf_, kDefaultBatch);
    buf_pos_ = 0;
    if (buf_.empty()) return false;
  }
  *rec = std::move(buf_[buf_pos_++]);
  return true;
}

// ----- Writes --------------------------------------------------------------

Status ProvBackend::WriteRecords(const std::vector<ProvRecord>& records) {
  MutexLock write_gate(*write_mu_);
  std::vector<Row> rows;
  rows.reserve(records.size());
  size_t bytes = 0;
  for (const ProvRecord& rec : records) rows.push_back(ToRow(rec, &bytes));
  // One statement, validated up front: a duplicate {Tid, Loc} rejects the
  // whole batch with nothing written. Each index absorbs the batch as one
  // sorted run.
  CPDB_RETURN_IF_ERROR(prov_->InsertBatch(rows));
  sink_->ChargeWrite(records.size(), bytes);
  return Status::OK();
}

Status ProvBackend::WriteTxnMeta(const TxnMeta& meta) {
  MutexLock write_gate(*write_mu_);
  CPDB_RETURN_IF_ERROR(
      meta_
          ->Insert(Row{Datum(meta.tid), Datum(meta.user),
                       Datum(meta.commit_seq), Datum(meta.note)})
          .status());
  sink_->ChargeWrite(1);
  return Status::OK();
}

// ----- Streaming reads -----------------------------------------------------

ProvCursor ProvBackend::ScanAll() {
  ProvCursor cur = MakeCursor();
  ScanSpec spec;
  spec.index = "pk_tid_loc";
  cur.AddSegment(Bounded(std::move(spec)));
  return cur;
}

ProvCursor ProvBackend::ScanAtLoc(const tree::Path& loc) {
  ProvCursor cur = MakeCursor();
  ScanSpec spec;
  spec.index = "idx_loc_tid";
  spec.eq = Row{Datum(loc.ToString())};
  cur.AddSegment(Bounded(std::move(spec)));
  return cur;
}

ProvCursor ProvBackend::ScanUnder(const tree::Path& loc, ProvFields fields) {
  ProvCursor cur = MakeCursor(fields);
  if (loc.IsRoot()) {
    // Everything is under the universe root.
    ScanSpec spec;
    spec.index = "idx_loc_tid";
    cur.AddSegment(Bounded(std::move(spec)));
    return cur;
  }
  // The node itself plus everything strictly below it. The two ranges are
  // separately contiguous in the index ("loc" and "loc/..."; labels may
  // contain characters sorting before '/', so one string range would
  // admit strangers like "loc!x"). Both ride on the same statement.
  ScanSpec self;
  self.index = "idx_loc_tid";
  self.eq = Row{Datum(loc.ToString())};
  cur.AddSegment(Bounded(std::move(self)));
  ScanSpec below;
  below.index = "idx_loc_tid";
  below.prefix = loc.ToString() + "/";
  cur.AddSegment(Bounded(std::move(below)));
  return cur;
}

ProvCursor ProvBackend::ScanAtLocOrAncestors(const tree::Path& loc,
                                             bool include_self,
                                             ProvFields fields) {
  std::vector<tree::Path> targets;
  if (include_self) targets.push_back(loc);
  tree::Path a = loc;
  while (a.Depth() > 2) {
    a = a.Parent();
    targets.push_back(a);
  }
  // Shallowest first, so the merged stream is (Loc, Tid)-ordered (an
  // ancestor's rendering is a string prefix of its descendants').
  std::sort(targets.begin(), targets.end());
  ProvCursor cur = MakeCursor(fields);
  for (const tree::Path& t : targets) {
    ScanSpec spec;
    spec.index = "idx_loc_tid";
    spec.eq = Row{Datum(t.ToString())};
    cur.AddSegment(Bounded(std::move(spec)));
  }
  return cur;
}

// ----- Batched point lookups -----------------------------------------------

Result<std::vector<ProvRecord>> ProvBackend::LookupMany(
    int64_t tid, const std::vector<tree::Path>& locs) {
  std::vector<ProvRecord> out;
  if (locs.empty()) return out;  // empty statement: nothing to send
  if (read_watermark_ >= 0 && tid > read_watermark_) {
    // The statement's own constant is past this handle's snapshot bound:
    // every row it could match is invisible. Decided client-side (the
    // session knows its watermark), so no round trip is issued.
    return out;
  }
  // One statement: every point lookup rides the single charge below.
  Status inner = Status::OK();
  auto collect = [&](const relstore::Rid&, const Row& row) {
    auto rec = FromRow(row);
    if (!rec.ok()) {
      inner = rec.status();
      return false;
    }
    out.push_back(std::move(rec).value());
    return true;
  };
  for (const tree::Path& loc : locs) {
    CPDB_RETURN_IF_ERROR(prov_->LookupEq(
        "pk_tid_loc", Row{Datum(tid), Datum(loc.ToString())}, collect));
    CPDB_RETURN_IF_ERROR(inner);
  }
  sink_->ChargeCall(use_indexes_ ? out.size() : prov_->RowCount());
  return out;
}

size_t ProvBackend::RowCount() const { return prov_->RowCount(); }

size_t ProvBackend::PhysicalBytes() const { return prov_->PhysicalBytes(); }

int64_t ProvBackend::MaxTid() const {
  // The largest (Tid, Loc) key leads with the largest Tid: one O(log n)
  // rightmost descent per index, no heap reads. TxnMeta is consulted too:
  // Prov is append-only, but a committed transaction may have written no
  // Prov row (an H insert whose provenance is inferable, or a T/HT
  // transaction whose net effect is empty) and recorded only metadata,
  // and its tid must not be reused.
  int64_t max_tid = 0;
  auto last_prov = prov_->LastKey("pk_tid_loc");
  if (last_prov.ok()) max_tid = (*last_prov)[0].AsInt();
  auto last_meta = meta_->LastKey("pk_tid");
  if (last_meta.ok() && (*last_meta)[0].AsInt() > max_tid) {
    max_tid = (*last_meta)[0].AsInt();
  }
  return max_tid;
}

}  // namespace cpdb::provenance
