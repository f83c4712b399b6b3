#pragma once

#include <memory>
#include <vector>

#include "cpdb/editor.h"
#include "service/engine.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cpdb::service {

/// Configuration shared by every session a pool hands out.
struct SessionOptions {
  provenance::Strategy strategy =
      provenance::Strategy::kHierarchicalTransactional;
  /// Read-only sources every session mounts (borrowed; outlive the pool).
  std::vector<wrap::SourceDb*> sources;
};

/// One curator's session against a shared Engine: an Editor over a
/// committed snapshot of the target, wired into the engine's tid
/// allocator, group-commit queue, and per-session cost accounting.
///
/// Concurrency contract (README "Service layer"):
///
///  * Staging is private. For T/HT, Apply/ApplyScript only touch the
///    session's universe and in-memory provlist — no latch needed, any
///    number of sessions stage concurrently. Commit() ships the staged
///    transaction through the engine's CommitQueue, which applies it
///    under the exclusive latch and seals it with the cohort's one fsync.
///  * Per-op strategies commit per unit. For N/H every Apply (one
///    transaction) and every ApplyScript (one staged batch, one tid per
///    op) is a commit unit: it runs wholesale under the exclusive latch
///    via the CommitQueue. Commit() is the usual harmless no-op.
///  * Reads take a shared grant. Wrap every batch of queries/scans in
///    `auto g = session->ReadLock();` and drain cursors before releasing
///    it. Never commit while holding a grant.
///  * The snapshot is a copy-on-write clone. The universe's target subtree
///    is a clone of the committed target at the watermark the session was
///    handed out at (snapshot_tid()); it owns its nodes, so other
///    sessions' commits never appear in it and it stays readable — bit
///    identical — however far the committed state advances. The session
///    is *stale* once snapshot_tid() < Engine::CommittedTid();
///    re-acquiring from the pool refreshes it in place by swapping the
///    target subtree for the pool's snapshot at the new watermark.
///    Disjoint-subtree curation is exact under this model; sessions racing
///    updates to the SAME path see first-committer-wins at the store
///    level, not merged views.
///
/// All modelled charges (backend round trips, rows, local work) land on
/// the session's private CostModel — race-free by construction — and fold
/// into Engine::cost_totals() when the pool takes the session back.
class Session {
 public:
  /// Stages (T/HT) or commits (N/H) one update.
  Status Apply(const update::Update& u);

  /// Stages (T/HT) or commits as one group-committed batch (N/H) a whole
  /// script. Same per-op semantics as Editor::ApplyScript.
  Status ApplyScript(const update::Script& script, size_t* applied = nullptr);

  /// Commits the staged transaction through the engine's group-commit
  /// queue (T/HT; blocks until the cohort's seal). No-op for N/H.
  Status Commit();

  /// Reverts the uncommitted transaction (T/HT; local, latch-free).
  Status Abort();

  /// Shared grant over the engine state for a batch of reads.
  SharedLatch::ReadGuard ReadLock() CPDB_ACQUIRE_SHARED(engine_->latch()) {
    return engine_->Read();
  }

  /// The session's query engine (hold a ReadLock while using it).
  query::QueryEngine* query() { return editor_->query(); }

  /// The session's handle on the shared provenance store; reads through
  /// it charge this session's CostModel (hold a ReadLock).
  provenance::ProvBackend* backend() { return &backend_view_; }

  /// The underlying editor (advanced use; the concurrency contract above
  /// still applies to every call made through it).
  Editor* editor() { return editor_.get(); }

  /// Tid of this session's last committed transaction.
  int64_t LastCommittedTid() const { return editor_->store()->LastCommittedTid(); }

  /// This session's private interaction costs so far.
  relstore::CostModel& cost() { return cost_; }

  /// Commit-ordered watermark the session's snapshot was opened at: the
  /// target subtree reflects exactly the transactions with tid <= this.
  /// Stale when Engine::CommittedTid() has moved past it.
  int64_t snapshot_tid() const { return snapshot_tid_; }

  Engine* engine() { return engine_; }

  /// Attaches a per-request span collector for the duration of one traced
  /// request: every commit unit it runs (COMMIT for T/HT, APPLY for N/H)
  /// opens a "commit.execute" span under `parent_span` carrying the
  /// committed tid, with the queue/apply/seal/wake stages as children, so
  /// a committed write's trace shows its path through the group-commit
  /// queue. Pass nullptr to detach. Single-threaded, like the CostModel:
  /// set by the one thread driving the session, before the call, cleared
  /// after.
  void set_trace(obs::SpanCollector* sink, uint64_t parent_span) {
    trace_sink_ = sink;
    trace_parent_ = parent_span;
  }

 private:
  friend class SessionPool;
  Session() = default;

  /// The shared tail of every commit unit: ships `apply` through the
  /// engine's group-commit queue and, once it committed, unhides the
  /// session's own records (and its cohort's) from the provenance view by
  /// advancing the read watermark. With a collector attached (set_trace),
  /// the unit is also one commit.execute span tree.
  Status CommitTraced(std::function<Status()> apply);

  bool per_op_ = false;
  Engine* engine_ = nullptr;
  SessionOptions options_;
  relstore::CostModel cost_;
  provenance::ProvBackend backend_view_;
  std::unique_ptr<Editor> editor_;
  int64_t snapshot_tid_ = -1;
  obs::SpanCollector* trace_sink_ = nullptr;
  uint64_t trace_parent_ = 0;
};

/// Hands out Sessions against one Engine and takes them back.
///
/// Acquire() reuses a pooled session outright when its snapshot is still
/// the committed state, and refreshes a stale one in place — swap the
/// editor's target subtree for the committed snapshot — instead of
/// tearing it down. Build() (first acquires, cold pool) builds a session
/// around the same snapshot. Both take it from Snapshot(), which keeps
/// the newest snapshot the pool took: every build and refresh at one
/// watermark clones that one tree, and only a new watermark asks the
/// target for a new one (TargetDb::TreeFromDb — O(1) copy-on-write for a
/// tree target, a table scan for a relational one). Release() folds the
/// session's CostModel into the engine's totals and pools the session
/// for reuse. Thread-safe; snapshots and builds are serialized on
/// build_mu_.
///
/// The pool counts its work in the engine's registry:
/// cpdb_sessions_built_total, cpdb_sessions_reused_total and
/// cpdb_sessions_refreshed_total (a refresh also counts as a reuse), and
/// per snapshot taken from the target cpdb_snapshot_rebuilds_total and
/// cpdb_snapshot_rebuild_rows_total (the rows the target shipped for
/// it). Pools sharing one engine share the counters.
class SessionPool {
 public:
  SessionPool(Engine* engine, SessionOptions options);

  /// A session over the current committed state; the engine's status
  /// once it has stopped (Engine::Running).
  Result<std::unique_ptr<Session>> Acquire() CPDB_EXCLUDES(mu_, build_mu_);

  /// Returns a session to the pool. The session must have no staged
  /// transaction (Commit or Abort first); a pending one is aborted here,
  /// matching a curator closing their editor mid-edit.
  void Release(std::unique_ptr<Session> session) CPDB_EXCLUDES(mu_);

  /// The strategy every session of this pool curates under.
  provenance::Strategy strategy() const { return options_.strategy; }

 private:
  Result<std::unique_ptr<Session>> Build() CPDB_EXCLUDES(mu_, build_mu_);

  /// A clone of the committed target for `s`, which it stamps with the
  /// watermark the clone is at: a clone of the cached snapshot while its
  /// watermark is still CommittedTid(), else of a new one taken from the
  /// target under a read grant, counted and cached.
  Result<tree::Tree> Snapshot(Session* s) CPDB_REQUIRES(build_mu_)
      CPDB_EXCLUDES(mu_);

  Engine* engine_;
  SessionOptions options_;
  Mutex mu_;  ///< guards the freelist
  /// Serializes Build and Snapshot (see session.cc); always taken before
  /// mu_.
  Mutex build_mu_ CPDB_ACQUIRED_BEFORE(mu_);
  std::vector<std::unique_ptr<Session>> free_ CPDB_GUARDED_BY(mu_);
  /// The newest snapshot taken from the target, and its watermark.
  int64_t cached_tid_ CPDB_GUARDED_BY(build_mu_) = -1;
  std::shared_ptr<const tree::Tree> cached_ CPDB_GUARDED_BY(build_mu_);
  /// The pool's counters, stored in the engine's registry.
  obs::Counter* built_;
  obs::Counter* reused_;
  obs::Counter* refreshed_;
  obs::Counter* rebuilds_;
  obs::Counter* rebuild_rows_;
};

}  // namespace cpdb::service
