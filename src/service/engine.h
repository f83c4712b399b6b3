#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/backend.h"
#include "relstore/cost_model.h"
#include "service/commit_queue.h"
#include "service/latch.h"
#include "service/snapshots.h"
#include "storage/durable.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wrap/target_db.h"

namespace cpdb::service {

/// The multi-session engine: ONE shared curated target + provenance
/// backend (over one — possibly durable — relstore::Database), served to
/// N concurrent curator sessions.
///
/// Four shared facilities (see README "Service layer"):
///
///  * the SharedLatch — read-only sessions hold shared grants; committed
///    transactions apply under the commit queue's exclusive grant;
///  * the CommitQueue — leader/follower group commit, ONE WAL record and
///    ONE fsync per cohort via SyncShared(), with optional
///    disjoint-subtree parallel apply (EnableParallelApply);
///  * the SnapshotManager — the version chain of committed target states.
///    Cohorts advance the committed tid watermark; the session pool
///    publishes the tree at that watermark lazily, on the first acquire
///    that needs it (O(1) for cheap-snapshot targets: a copy-on-write
///    clone). Sessions pin the version they read, and versions older than
///    the oldest live pin are garbage-collected. Session staleness is a
///    tid comparison (CommittedTid()), replacing the latch-epoch stamp of
///    earlier revisions;
///  * engine-wide monotonic tid allocation — NextTid() is an atomic
///    counter fed once at attach from ProvBackend::MaxTid() (which also
///    consults TxnMeta), replacing the per-store sequential counters that
///    would race and mint duplicate tids across sessions.
///
/// The engine also aggregates per-session CostModels into a race-free
/// CostAggregate (sessions charge plain private models; SessionPool folds
/// them in on release), so bench totals over concurrent sessions are
/// exact without putting atomics on every charge path.
///
/// The engine borrows `backend` and `target`; both must outlive it, and
/// once the engine is attached every write to either must go through a
/// session commit (the editor rule "writable only via high-level
/// interfaces", now with "…of one engine" appended).
class Engine {
 public:
  /// Attaches to the shared store. Seeds the tid allocator from
  /// ProvBackend::MaxTid(), so a reopened durable store continues its
  /// transaction numbering exactly like a standalone session would.
  Engine(provenance::ProvBackend* backend, wrap::TargetDb* target)
      : backend_(backend),
        target_(target),
        base_tid_(backend->MaxTid()),
        next_tid_(base_tid_ + 1),
        committed_tid_(base_tid_),
        queue_(&latch_, [this](size_t) { return SyncShared(); }) {
    queue_.set_publish([this] { PublishSnapshot(); });
    queue_.set_prepare_parallel([this](const std::vector<tree::Path>& c) {
      return target_->PrepareParallelApply(c);
    });
    queue_.set_sync_probe(
        [this] { return sync_calls_.load(std::memory_order_relaxed); });
    WireMetrics();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Mints the next engine-wide transaction number. Thread-safe; called
  /// by the sessions' provenance stores from inside commit closures.
  int64_t NextTid() { return next_tid_.fetch_add(1, std::memory_order_relaxed); }

  /// Largest tid handed out so far (base_tid when none yet).
  int64_t LastAllocatedTid() const {
    return next_tid_.load(std::memory_order_relaxed) - 1;
  }

  /// Tid the engine attached at: LastAllocatedTid() == base_tid() means
  /// no transaction has committed through this engine yet.
  int64_t base_tid() const { return base_tid_; }

  /// Watermark of the committed state: the last tid of the newest sealed
  /// cohort. A session whose snapshot_tid() matches is current — this tid
  /// comparison replaced the latch-epoch staleness stamp.
  int64_t CommittedTid() const {
    return committed_tid_.load(std::memory_order_acquire);
  }

  /// Shared grant for a batch of reads (queries, scans, snapshots).
  /// Never commit while holding one — the commit would deadlock behind
  /// the leader waiting for the grant to drain (and the analysis flags
  /// it: Commit excludes the latch this returns a scoped hold on).
  SharedLatch::ReadGuard Read() CPDB_ACQUIRE_SHARED(latch_) {
    return SharedLatch::ReadGuard(latch_);
  }

  /// Commits one transaction through the group-commit queue. `apply`
  /// runs under the exclusive latch (possibly on another committer's
  /// thread) and must contain every shared-state write of the
  /// transaction; the cohort seals with one SyncShared(). `claims` — the
  /// transaction's target-relative writeset — lets the leader batch it
  /// with disjoint cohort-mates on the apply pool; empty claims always
  /// fall back to in-order apply. An active `trace` receives the
  /// commit's stage spans under `parent` (see CommitQueue::Commit).
  Status Commit(std::function<Status()> apply,
                std::vector<tree::Path> claims = {},
                obs::SpanCollector* trace = nullptr, uint64_t parent = 0)
      CPDB_EXCLUDES(latch_) {
    return queue_.Commit(std::move(apply), std::move(claims), trace, parent);
  }

  /// Spins up the disjoint-subtree apply pool (see CommitQueue). Call
  /// once, before sessions start committing.
  void EnableParallelApply(size_t workers) { queue_.EnableParallelApply(workers); }

  /// Committers currently enqueued behind the leader — the admission
  /// signal the network front end sheds on (net::Server answers RETRY
  /// when this is deeper than its configured bound, instead of stacking
  /// more work behind a saturated group-commit queue).
  size_t CommitQueueDepth() const { return queue_.Pending(); }

  /// Checkpoints the shared store under the exclusive latch, so the
  /// snapshot covers a committed prefix and no in-flight cohort. Used by
  /// the network server's CHECKPOINT admin verb and by graceful drain
  /// (checkpoint-on-drain: recovery after a drained shutdown replays no
  /// log at all). A no-op for in-memory stores.
  Status Checkpoint() CPDB_EXCLUDES(latch_) {
    if (!backend_->db()->durable()) return Status::OK();
    SharedLatch::WriteGuard guard(latch_);
    return backend_->db()->Checkpoint();
  }

  /// The cohort seal: ONE durable group commit covering everything the
  /// cohort wrote — Database::Sync seals the provenance store's (and a
  /// shared relational target's) journal into one WAL record + one fsync,
  /// then the target's own barrier runs (free when it shares the
  /// Database or is in-memory). Runs on the commit queue's leader thread
  /// with the exclusive latch held; the contract crosses a std::function
  /// boundary the analysis cannot see through, so it is enforced by the
  /// CommitQueue's own annotations rather than a REQUIRES here. The call
  /// count feeds the queue's ONE-seal-per-cohort assertion.
  Status SyncShared() {
    sync_calls_.fetch_add(1, std::memory_order_relaxed);
    CPDB_RETURN_IF_ERROR(backend_->db()->Sync());
    return target_->Sync();
  }

  SharedLatch& latch() CPDB_RETURN_CAPABILITY(latch_) { return latch_; }
  CommitQueue& commit_queue() { return queue_; }
  SnapshotManager& snapshots() { return snapshots_; }
  provenance::ProvBackend* backend() { return backend_; }
  wrap::TargetDb* target() { return target_; }
  relstore::Database* db() { return backend_->db(); }

  /// Engine-wide totals of released sessions' cost models (plus anything
  /// folded in explicitly). Thread-safe.
  relstore::CostAggregate& cost_totals() { return cost_totals_; }

  /// The engine's metrics registry — the storage of every counter the
  /// service keeps (commits, cohorts, versions, rebuilds, ...) and of
  /// every commit-pipeline series (WAL/fsync latency, queue stage
  /// timings, latch waits, snapshot and cohort distributions). All are
  /// registered here at construction, and the server/pool/tools layers
  /// add theirs on top. Readers look a counter up by name:
  /// `metrics().GetCounter("cpdb_commits_total", "")->Value()`. One
  /// registry renders both export surfaces: Prometheus (`METRICS`,
  /// `/metrics`) and the flat STATS/bench JSON.
  obs::Registry& metrics() { return metrics_; }

  /// The one store of assembled trace trees: the network server records
  /// every sampled or slow request's span tree here — a slow COMMIT and
  /// a slow GETMOD alike — and the TRACES verb renders it back. Its
  /// SetSlowThresholdUs arms the slow-request watch (--slow-ms).
  obs::SpanStore& spans() { return spans_; }

  /// Mints a trace id for server-initiated collection (slow-request
  /// watch, EXPLAIN). The high bit marks it server-minted so it can
  /// never collide with a client's id space. Thread-safe.
  uint64_t MintTraceId() {
    return trace_id_seq_.fetch_add(1, std::memory_order_relaxed) |
           (uint64_t{1} << 63);
  }

 private:
  /// Runs on the commit queue's leader thread after a cohort's applies
  /// and seal, exclusive latch held: advances the committed watermark.
  /// Versions are published LAZILY — by the session pool, on the first
  /// acquire/refresh that needs this watermark — not here. Eager
  /// publishing would share the target's tree with a version after every
  /// cohort, making every subsequent commit's native replay re-privatize
  /// its copy-on-write path (one child-map clone per node per cohort);
  /// lazy publishing pays that wave once per session acquire instead.
  void PublishSnapshot() {
    committed_tid_.store(LastAllocatedTid(), std::memory_order_release);
  }

  /// Creates every engine-level metric and plugs the sinks into the
  /// latch, the commit queue, and the WAL (when durable) — all before
  /// any session thread exists, so the sink fields never race. Out of
  /// line (engine.cc): it is a page of registrations.
  void WireMetrics();

  provenance::ProvBackend* backend_;
  wrap::TargetDb* target_;
  /// Declared (so destroyed) outside the machinery that records into
  /// them: the queue's worker threads must die before their sinks.
  obs::Registry metrics_;
  obs::SpanStore spans_;
  std::atomic<uint64_t> trace_id_seq_{1};
  int64_t base_tid_;  ///< initialized before next_tid_ (declaration order)
  std::atomic<int64_t> next_tid_;
  std::atomic<int64_t> committed_tid_;
  std::atomic<uint64_t> sync_calls_{0};
  SharedLatch latch_;
  SnapshotManager snapshots_;
  CommitQueue queue_;
  relstore::CostAggregate cost_totals_;
};

}  // namespace cpdb::service
