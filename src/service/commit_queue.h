#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/latch.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cpdb::service {

/// Leader/follower group commit — the PRISM-style opportunistic combiner
/// over the engine's exclusive latch.
///
/// Concurrent committers enqueue their transaction's apply closure and
/// block. The first arrival (or a promoted successor) becomes the
/// *leader*: it acquires the exclusive latch — while it waits for active
/// readers to drain, more committers pile onto the queue — then drains
/// everything queued as one *cohort*, runs each member's apply closure on
/// its own thread in enqueue order (transaction numbers are minted inside
/// the closures via the engine's allocator, so tid order and apply order
/// coincide by construction), seals the whole cohort with ONE call to the
/// engine's seal function (Database::Sync + TargetDb::Sync: one WAL
/// record, one fsync), publishes the new committed watermark if the seal
/// succeeded, releases the latch, and wakes every follower with its own
/// result — each on its OWN condition variable, so a cohort's completion
/// costs one targeted wakeup per member instead of a thundering herd on a
/// shared CondVar. A leader serves exactly one cohort; if the queue
/// refilled meanwhile, the front waiter is promoted so no thread combines
/// forever.
///
/// Error semantics: each member keeps its own apply error (one failed
/// transaction does not poison its cohort-mates — their writes are
/// independent and still seal). A seal failure is reported to every
/// member whose apply succeeded: their writes did not become durable, so
/// the cohort is not published, and the engine fail-stops
/// (Engine::Running), so no later cohort can leapfrog the gap.
///
/// Crash atomicity: the cohort's writes ride one WAL record, so recovery
/// sees all of them or none — a crash after the leader's fsync keeps the
/// whole cohort, a crash before loses the whole cohort (see
/// tests/service_test.cc's capture-and-reopen crash tests).
class CommitQueue {
 public:
  /// `seal` makes everything the cohort applied durable in one barrier;
  /// it receives the cohort size and runs under the exclusive latch.
  CommitQueue(SharedLatch* latch, std::function<Status(size_t)> seal)
      : latch_(latch), seal_(std::move(seal)) {}

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Commits one transaction: enqueues `apply`, combines with whatever
  /// else is committing, and returns once this transaction is applied and
  /// sealed (or failed). `apply` runs under the exclusive latch, possibly
  /// on another committer's thread: the leader's. The caller must hold
  /// neither the latch nor a read grant (see SharedLatch's reentrancy
  /// rule).
  ///
  /// When `trace` is active, the transaction's walk through the pipeline
  /// is appended under `parent` as four abutting spans cut at the
  /// leader's own stamps — commit.queue (enqueue -> the leader drained
  /// the queue), commit.apply (the cohort's apply phase), commit.seal
  /// (its one durability barrier), commit.wake (seal -> this member saw
  /// done) — and `parent`'s detail is set to the cohort size and whether
  /// this member led. Both happen on the calling thread after its wait,
  /// so the collector stays single-threaded.
  Status Commit(std::function<Status()> apply,
                obs::SpanCollector* trace = nullptr, uint64_t parent = 0)
      CPDB_EXCLUDES(mu_, *latch_);

  /// After the cohort's applies and a successful seal, with the exclusive
  /// latch held: the engine advances its committed watermark here. A
  /// cohort whose seal failed is not published.
  void set_publish(std::function<void()> publish) { publish_ = std::move(publish); }

  /// Monotonic count of the records appended to the engine's WAL (set on
  /// durable engines only). When set, RunCohort asserts the ONE-seal
  /// contract: no record during the applies and at most one across the
  /// seal — a member's apply closure sneaking its own Database::Sync past
  /// the group commit splits the cohort over two records, a fail-stop
  /// bug, not a perf footnote.
  void set_wal_probe(std::function<uint64_t()> probe) {
    wal_probe_ = std::move(probe);
  }

  /// The queue's registry sinks. Stage latencies are commit-weighted:
  /// each committed transaction records its own queue/apply/seal/wake/
  /// total durations, so a 16-member cohort counts 16 observations of the
  /// one seal it shared — percentiles then answer "what did a COMMIT
  /// experience", matching the benches' client-side latency.
  /// `cohort_size` is cohort-weighted (one observation per cohort). The
  /// leader bumps the counters before it marks the cohort done, so a
  /// committer that returned sees its own commit counted. Any pointer may
  /// be null. Set before committers start, like the publish/seal hooks:
  /// the fields are written once single-threaded.
  struct Metrics {
    obs::Histogram* queue_us = nullptr;
    obs::Histogram* apply_us = nullptr;
    obs::Histogram* seal_us = nullptr;
    obs::Histogram* wake_us = nullptr;
    obs::Histogram* total_us = nullptr;
    obs::Histogram* cohort_size = nullptr;
    obs::Counter* commits = nullptr;   ///< transactions committed
    obs::Counter* cohorts = nullptr;   ///< exclusive grants (= seal calls)
    obs::Counter* combined = nullptr;  ///< commits that rode another's seal
    obs::Gauge* max_cohort = nullptr;
  };
  void set_metrics(const Metrics& m) { metrics_ = m; }

  /// Committers currently enqueued and not yet applied.
  size_t Pending() const CPDB_EXCLUDES(mu_);

  /// Test-only crash injection around the seal (service_test's
  /// crash-during-group-commit coverage). Called on the leader thread,
  /// cohort size as argument, exclusive latch held. Install hooks before
  /// committers start: the leader snapshots them per cohort under mu_.
  struct TestHooks {
    std::function<void(size_t)> before_seal;
    std::function<void(size_t)> after_seal;
  };
  void set_test_hooks(TestHooks hooks) CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    hooks_ = std::move(hooks);
  }

 private:
  struct Request {
    std::function<Status()> apply;
    Status result;        ///< written by the leader, read after `done`
    bool done = false;    ///< guarded by mu_ (cross-thread handshake)
    bool leader = false;  ///< promoted: wake up and run the next cohort
    CondVar cv;           ///< this member's targeted wakeup (no herd)
    // Stage stamps. `enqueue_us` is the committer's own; the rest are
    // written by the leader before the done handshake (the mu_
    // release/acquire pair orders them for the member's post-wait reads).
    double enqueue_us = 0;
    double lead_us = 0;     ///< leader drained the queue (cohort formed)
    double applied_us = 0;  ///< cohort apply phase finished
    double sealed_us = 0;   ///< cohort seal returned
    size_t cohort_size = 0;
  };

  /// Runs one cohort. Called with mu_ held and this thread as leader;
  /// returns with mu_ held, the cohort done, and leadership passed on (or
  /// released). Acquires and releases the exclusive latch internally.
  void RunCohort() CPDB_REQUIRES(mu_);

  SharedLatch* latch_;
  std::function<Status(size_t)> seal_;
  std::function<void()> publish_;
  std::function<uint64_t()> wal_probe_;
  Metrics metrics_;  ///< set once before committers start

  mutable Mutex mu_;
  std::deque<Request*> queue_ CPDB_GUARDED_BY(mu_);
  TestHooks hooks_ CPDB_GUARDED_BY(mu_);
  bool leader_active_ CPDB_GUARDED_BY(mu_) = false;
};

}  // namespace cpdb::service
