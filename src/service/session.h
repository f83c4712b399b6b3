#pragma once

#include <memory>
#include <string>
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
  bool record_txn_meta = false;
  std::string user = "curator";
};

/// One curator's session against a shared Engine: an Editor over a
/// pinned committed version of the target, wired into the engine's tid
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
///  * The snapshot is versioned, not copied. The universe's target
///    subtree is a copy-on-write clone of the SnapshotManager version the
///    session PINS at acquire (snapshot_tid()); other sessions' commits
///    never appear in it, and the pinned version stays readable — bit
///    identical — until the session releases the pin, no matter how far
///    the committed state advances. The session is *stale* once
///    snapshot_tid() < Engine::CommittedTid(); re-acquiring from the pool
///    refreshes it O(1) by re-pinning the newest version and swapping the
///    target subtree (no scan, no copy). Disjoint-subtree curation is
///    exact under this model; sessions racing updates to the SAME path
///    see first-committer-wins at the store level, not merged views.
///
/// All modelled charges (backend round trips, rows, local work) land on
/// the session's private CostModel — race-free by construction — and fold
/// into Engine::cost_totals() when the pool takes the session back.
class Session {
 public:
  ~Session();

  /// Stages (T/HT) or commits (N/H) one update.
  Status Apply(const update::Update& u);

  /// Stages (T/HT) or commits as one group-committed batch (N/H) a whole
  /// script. Same per-op semantics as Editor::ApplyScript.
  Status ApplyScript(const update::Script& script, size_t* applied = nullptr);

  /// Commits the staged transaction through the engine's group-commit
  /// queue (T/HT; blocks until the cohort's seal), declaring the staged
  /// writeset so disjoint cohort-mates can apply in parallel. No-op for
  /// N/H.
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
  /// Stale when Engine::CommittedTid() has moved past it. (Replaces the
  /// latch-epoch stamp of earlier revisions — see cpdb.h migration notes.)
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

  /// After a successful commit: unhide the session's own records (and its
  /// cohort's watermark) from the provenance view.
  void AdvanceReadWatermark();

  /// The shared tail of every commit unit: ships `apply` through the
  /// engine's group-commit queue and advances the read watermark. With a
  /// collector attached (set_trace), the unit is also one commit.execute
  /// span tree.
  Status CommitTraced(std::function<Status()> apply,
                      std::vector<tree::Path> claims);

  bool per_op_ = false;
  Engine* engine_ = nullptr;
  SessionOptions options_;
  relstore::CostModel cost_;
  provenance::ProvBackend backend_view_;
  std::unique_ptr<Editor> editor_;
  /// The pinned committed version backing the universe's target subtree.
  /// Held only while the session is checked out — the pool drops it on
  /// Release so idle inventory never holds back version GC. pin_.seq == 0
  /// while pooled, and when the target cannot publish versions (no cheap
  /// snapshots) and the session runs on a private materialization.
  SnapshotManager::Pin pin_;
  int64_t snapshot_tid_ = -1;
  obs::SpanCollector* trace_sink_ = nullptr;
  uint64_t trace_parent_ = 0;
};

/// Hands out Sessions against one Engine and takes them back.
///
/// Acquire() reuses a pooled session outright when its pinned version is
/// still the committed state; a stale pooled session is *refreshed* in
/// O(1) — re-pin the newest version, swap the editor's target subtree —
/// instead of being torn down. Build() (first acquires, cold pool) pins
/// the newest version too; only when the version chain cannot serve —
/// bootstrap, or a target without cheap snapshots — does it materialize
/// the target with a full scan, and that scan is counted
/// (cpdb_snapshot_rebuilds_total). A warm pool under write
/// traffic therefore copies nothing and scans nothing. Release() folds
/// the session's CostModel into the engine's totals and pools the session
/// for reuse. Thread-safe; building is serialized on the pool's mutex.
class SessionPool {
 public:
  SessionPool(Engine* engine, SessionOptions options)
      : engine_(engine), options_(std::move(options)) {}

  /// A session over the current committed state.
  Result<std::unique_ptr<Session>> Acquire() CPDB_EXCLUDES(mu_, build_mu_);

  /// Returns a session to the pool. The session must have no staged
  /// transaction (Commit or Abort first); a pending one is aborted here,
  /// matching a curator closing their editor mid-edit.
  void Release(std::unique_ptr<Session> session) CPDB_EXCLUDES(mu_);

  size_t built() const CPDB_EXCLUDES(mu_);
  size_t reused() const CPDB_EXCLUDES(mu_);
  /// Stale pooled sessions refreshed O(1) (counted inside reused()).
  size_t refreshed() const CPDB_EXCLUDES(mu_);

 private:
  Result<std::unique_ptr<Session>> Build() CPDB_EXCLUDES(mu_, build_mu_);

  /// Pins a committed version for `s` and returns a CoW clone of it for
  /// the editor's universe; falls back to (and counts) a full
  /// materialization when the chain cannot serve. Sets s->pin_ /
  /// s->snapshot_tid_.
  Result<tree::Tree> AcquireSnapshot(Session* s) CPDB_EXCLUDES(mu_);

  /// Pins the version at the committed watermark, lazily publishing it
  /// (O(1), under a read grant) when the chain lags — cohorts only
  /// advance the watermark. False when only a full scan could serve
  /// (target without cheap snapshots and no current version).
  bool EnsureLatestPinned(SnapshotManager::Pin* pin);

  /// O(1) refresh of a stale pooled session: re-pin at the watermark,
  /// swap the target subtree. False when the chain cannot serve (caller
  /// drops the session and builds instead).
  bool Refresh(Session* s);

  Engine* engine_;
  SessionOptions options_;
  mutable Mutex mu_;  ///< freelist + counters
  /// Serializes Build (see session.cc); always taken before mu_.
  Mutex build_mu_ CPDB_ACQUIRED_BEFORE(mu_);
  std::vector<std::unique_ptr<Session>> free_ CPDB_GUARDED_BY(mu_);
  size_t built_ CPDB_GUARDED_BY(mu_) = 0;
  size_t reused_ CPDB_GUARDED_BY(mu_) = 0;
  size_t refreshed_ CPDB_GUARDED_BY(mu_) = 0;
};

}  // namespace cpdb::service
