#pragma once

#include <optional>
#include <vector>

#include "obs/trace.h"
#include "provenance/inference.h"
#include "provenance/store.h"
#include "tree/path.h"
#include "util/result.h"

namespace cpdb::query {

/// One step in a provenance trace: during transaction `tid`, the data now
/// under scrutiny sat at `loc` and came from `src` (for copies) or was
/// created/deleted there (for I/D).
struct TraceStep {
  int64_t tid = 0;
  provenance::ProvOp op = provenance::ProvOp::kInsert;
  tree::Path loc;
  tree::Path src;
};

/// Result of tracing a location backwards through all transactions — the
/// reflexive-transitive closure Trace of the paper's From relation
/// (Section 2.2), computed by walking tids from tnow down to the first.
struct TraceResult {
  /// Copy hops and the final insert (if reached), newest first.
  std::vector<TraceStep> steps;
  /// Transaction that inserted the data, if its origin is inside the
  /// tracked database.
  std::optional<int64_t> origin_tid;
  /// Where the chain left the tracked database (data copied from an
  /// external source such as S1), if it did.
  std::optional<tree::Path> external_src;
  /// Transaction in which the external copy happened.
  int64_t external_tid = 0;
};

/// Executes the paper's provenance queries against one store.
///
/// `target_root` is the top-level label of the curated (target) database
/// within the universe, e.g. "T": provenance chains are followed while
/// they stay under it and reported as external when they leave.
class QueryEngine {
 public:
  QueryEngine(provenance::ProvStore* store, tree::Path target_root)
      : store_(store), target_root_(std::move(target_root)) {}

  /// Full backwards walk from the data currently at `p`, as of the newest
  /// transaction this view sees: the backend's read watermark when one is
  /// set (a service session's snapshot), else the last committed tid.
  ///
  /// Implementation follows the paper's stored procedures (Section 3.3):
  /// per chain location one streaming store statement (a ProvCursor)
  /// fetches that location's records across all transactions — for
  /// hierarchical stores a combined location-plus-ancestors scan — and
  /// the walk follows the newest applicable record backwards. Cost is
  /// proportional to the number of copy hops, not the number of
  /// transactions.
  Result<TraceResult> TraceBack(const tree::Path& p);

  /// Src(p): the transaction that first created (inserted) the data at p,
  /// if it originated inside this database (Section 2.2: "the Src query
  /// cannot tell us anything about data that was copied from elsewhere").
  Result<std::optional<int64_t>> GetSrc(const tree::Path& p);

  /// Hist(p): all transactions that copied the data now at p, newest
  /// first.
  Result<std::vector<int64_t>> GetHist(const tree::Path& p);

  /// Mod(p): all transactions that created or modified data in the
  /// subtree under p (including p). Round-trip budget after the cursor
  /// redesign: ONE subtree range scan off the leaf chain (ceil(rows /
  /// batch) trips) plus, for hierarchical stores, ONE batched
  /// ancestor-chain statement — O(depth + 1) backend round trips in
  /// total, where the per-descendant path the paper measures (and this
  /// engine used to take) paid one trip per descendant location, O(n).
  /// The extra ancestor statement is still the cause of the hierarchical
  /// getMod penalty in Figure 13, just batched. When `versions` is
  /// provided, ancestor records are checked against the version trees for
  /// exact answers; without it the result may over-approximate
  /// (may-semantics), which is also what a store-only implementation can
  /// honestly deliver. Both statements read tids only
  /// (provenance::ProvFields::kTid), straight off the (Loc, Tid) index
  /// keys, except the ancestor statement under `versions`, whose check
  /// needs each record's op. The modelled charge is the same either way.
  /// Returns the tids ascending and distinct.
  Result<std::vector<int64_t>> GetMod(
      const tree::Path& p,
      const provenance::VersionFn& versions = nullptr);

  provenance::ProvStore* store() { return store_; }
  const tree::Path& target_root() const { return target_root_; }

  /// Attaches a per-request span collector for the duration of one traced
  /// query: each backend statement the engine issues (the subtree scan,
  /// the batched ancestor statement, TraceBack's per-location scans)
  /// opens a child span under `parent_span` with its row and round-trip
  /// counts. Pass nullptr to detach. Not thread-safe — a QueryEngine is
  /// session-private and a session runs on one thread at a time, so the
  /// seam follows the same single-threaded contract as the CostModel.
  void set_tracer(obs::SpanCollector* tracer, uint64_t parent_span) {
    tracer_ = tracer;
    tracer_parent_ = parent_span;
  }

 private:
  /// Effective record governing `loc` at the largest tid <= `t_max`:
  /// the newest explicit record at loc, or (hierarchical stores) the
  /// newest closest-ancestor record, rebased onto loc.
  Result<std::optional<provenance::ProvRecord>> NewestApplicable(
      const tree::Path& loc, int64_t t_max);

  provenance::ProvStore* store_;
  tree::Path target_root_;
  obs::SpanCollector* tracer_ = nullptr;
  uint64_t tracer_parent_ = 0;
};

}  // namespace cpdb::query
