#include "query/trace.h"

#include <algorithm>
#include <set>

namespace cpdb::query {

using provenance::ProvOp;
using provenance::ProvRecord;

Result<std::optional<ProvRecord>> QueryEngine::NewestApplicable(
    const tree::Path& loc, int64_t t_max) {
  // One streaming statement: records at loc (flat strategies) or at loc
  // and its ancestors (hierarchical — an ancestor record governs loc only
  // through the closest-ancestor inference, so at equal tids the deepest
  // location wins). The best candidate is tracked while the cursor
  // streams; nothing is materialized.
  const uint64_t span =
      tracer_ != nullptr
          ? tracer_->Open("query.loc_scan", tracer_parent_, loc.ToString())
          : 0;
  provenance::ProvCursor cursor =
      store_->IsHierarchical()
          ? store_->backend()->ScanAtLocOrAncestors(loc,
                                                    /*include_self=*/true)
          : store_->backend()->ScanAtLoc(loc);
  std::optional<ProvRecord> best;
  ProvRecord r;
  uint64_t rows = 0;
  while (cursor.Next(&r)) {
    ++rows;
    if (r.tid > t_max) continue;
    if (!r.loc.IsPrefixOf(loc)) continue;  // ancestors only (incl. self)
    if (!best.has_value() || r.tid > best->tid ||
        (r.tid == best->tid && best->loc.Depth() < r.loc.Depth())) {
      best = std::move(r);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->CloseWithCost(span, rows, cursor.RoundTrips(), 0);
  }
  CPDB_RETURN_IF_ERROR(cursor.status());
  if (!best.has_value()) return std::optional<ProvRecord>();
  if (best->loc == loc) return best;
  // Closest-ancestor inference, rebased onto loc.
  switch (best->op) {
    case ProvOp::kCopy:
      return std::optional<ProvRecord>(ProvRecord::Copy(
          best->tid, loc, loc.Rebase(best->loc, best->src)));
    case ProvOp::kInsert:
      return std::optional<ProvRecord>(ProvRecord::Insert(best->tid, loc));
    case ProvOp::kDelete:
      return std::optional<ProvRecord>(ProvRecord::Delete(best->tid, loc));
  }
  return Status::Internal("unknown provenance op");
}

Result<TraceResult> QueryEngine::TraceBack(const tree::Path& p) {
  TraceResult out;
  tree::Path cur = p;
  // Walk from the newest tid this view sees down to tid 1, whichever
  // session committed each step: a service session's read watermark
  // covers other sessions' commits, which its own LastCommittedTid and
  // FirstTid do not.
  const int64_t watermark = store_->backend()->read_watermark();
  int64_t t = watermark >= 0 ? watermark : store_->LastCommittedTid();
  while (t >= 1) {
    CPDB_ASSIGN_OR_RETURN(auto rec, NewestApplicable(cur, t));
    if (!rec.has_value()) break;  // unchanged all the way back
    switch (rec->op) {
      case ProvOp::kCopy: {
        out.steps.push_back({rec->tid, ProvOp::kCopy, cur, rec->src});
        if (!target_root_.IsPrefixOf(rec->src)) {
          // The chain leaves the tracked database.
          out.external_src = rec->src;
          out.external_tid = rec->tid;
          return out;
        }
        cur = rec->src;
        t = rec->tid - 1;
        break;
      }
      case ProvOp::kInsert: {
        out.steps.push_back({rec->tid, ProvOp::kInsert, cur, tree::Path()});
        out.origin_tid = rec->tid;
        return out;
      }
      case ProvOp::kDelete: {
        // A D record governing the traced location means it was recreated
        // later without provenance — possible only if tracking was
        // bypassed. Stop; the data's origin is unknown.
        out.steps.push_back({rec->tid, ProvOp::kDelete, cur, tree::Path()});
        return out;
      }
    }
  }
  return out;
}

Result<std::optional<int64_t>> QueryEngine::GetSrc(const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(TraceResult trace, TraceBack(p));
  return trace.origin_tid;
}

Result<std::vector<int64_t>> QueryEngine::GetHist(const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(TraceResult trace, TraceBack(p));
  std::vector<int64_t> out;
  for (const TraceStep& s : trace.steps) {
    if (s.op == ProvOp::kCopy) out.push_back(s.tid);
  }
  return out;
}

Result<std::vector<int64_t>> QueryEngine::GetMod(
    const tree::Path& p, const provenance::VersionFn& versions) {
  std::set<int64_t> tids;

  // ONE subtree range scan covers every record at or under p: each
  // strategy stores the subtree root of every touched region explicitly
  // (the naive strategies store every touched node), so the streamed
  // range is the complete per-descendant evidence. The pre-cursor path
  // re-queried each descendant location found here individually — the
  // paper's "must process all the descendants of a node" cost (Section
  // 4.2), one round trip per descendant; the leaf-chain scan delivers
  // the same rows in ceil(rows / batch) trips.
  const uint64_t scan_span =
      tracer_ != nullptr
          ? tracer_->Open("query.subtree_scan", tracer_parent_, p.ToString())
          : 0;
  provenance::ProvCursor under =
      store_->backend()->ScanUnder(p, provenance::ProvFields::kTid);
  ProvRecord r;
  uint64_t scan_rows = 0;
  while (under.Next(&r)) {
    ++scan_rows;
    tids.insert(r.tid);
  }
  if (tracer_ != nullptr) {
    tracer_->CloseWithCost(scan_span, scan_rows, under.RoundTrips(), 0);
  }
  CPDB_RETURN_IF_ERROR(under.status());

  if (store_->IsHierarchical()) {
    // Modifications recorded at an ancestor a of p (subtree copy, insert,
    // or delete at a) touch p's subtree without leaving records under p.
    // The whole ancestor chain is one batched statement (shallowest
    // first) instead of one point query per level. Only the version
    // check reads a record's op; without it the tids suffice.
    const uint64_t anc_span =
        tracer_ != nullptr
            ? tracer_->Open("query.ancestor_batch", tracer_parent_,
                            p.ToString())
            : 0;
    provenance::ProvCursor above = store_->backend()->ScanAtLocOrAncestors(
        p, /*include_self=*/false,
        versions != nullptr ? provenance::ProvFields::kRecord
                            : provenance::ProvFields::kTid);
    uint64_t anc_rows = 0;
    while (above.Next(&r)) {
      ++anc_rows;
      if (versions != nullptr) {
        // Exact check: did the operation's subtree reach p? For I/C the
        // affected subtree is the post-state at r.loc; for D the
        // pre-state. p was touched iff it existed in that version.
        const tree::Tree* v =
            versions(r.op == ProvOp::kDelete ? r.tid - 1 : r.tid);
        if (v == nullptr || v->Find(p) == nullptr) continue;
      }
      tids.insert(r.tid);
    }
    if (tracer_ != nullptr) {
      tracer_->CloseWithCost(anc_span, anc_rows, above.RoundTrips(), 0);
    }
    CPDB_RETURN_IF_ERROR(above.status());
  }
  return std::vector<int64_t>(tids.begin(), tids.end());
}

}  // namespace cpdb::query
