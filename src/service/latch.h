#pragma once

#include <cstddef>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cpdb::service {

/// The engine's shared/exclusive latch.
///
/// Read-only sessions (GetMod, TraceBack, cursor scans) run concurrently
/// under shared grants; the commit queue's leader applies a whole cohort
/// of committed transactions under one exclusive grant, and
/// Engine::Checkpoint takes the only other one. Cursors obey the same
/// rule as in the single-session world — drain them under one shared
/// grant; an exclusive section in between may invalidate them. (Session
/// staleness is a comparison against the engine's committed tid
/// watermark, not a latch property.)
///
/// Writer preference: once a committer is waiting, new shared requests
/// queue behind it. This bounds group-commit latency under a heavy read
/// load and, usefully, lets the cohort gather — while the leader waits
/// for active readers to drain, more committers pile onto the queue and
/// ride the same exclusive grant and fsync.
///
/// Not reentrant. A thread must never request the latch while holding it
/// (in particular: never commit while holding a read grant — the commit
/// blocks on the leader, which blocks on the read grant).
///
/// The latch is a Clang thread-safety CAPABILITY: annotate state guarded
/// by its exclusive section with CPDB_GUARDED_BY(latch) and functions
/// that must run inside a grant with CPDB_REQUIRES[_SHARED](latch), and
/// the discipline is compiler-checked under -Wthread-safety (see
/// util/thread_annotations.h and the `analyze` preset).
class CPDB_CAPABILITY("SharedLatch") SharedLatch {
 public:
  void LockShared() CPDB_ACQUIRE_SHARED() {
    // Only meter the contended path: the uncontended acquire is two
    // branches and must stay that cheap (every query takes it).
    obs::Histogram* h = shared_wait_us_;
    double start_us = 0;
    MutexLock l(mu_);
    if (h != nullptr && (writer_ || writers_waiting_ > 0)) {
      start_us = obs::NowMicros();
    }
    while (writer_ || writers_waiting_ > 0) can_read_.Wait(mu_);
    if (start_us != 0) h->Record(obs::NowMicros() - start_us);
    ++readers_;
  }

  void UnlockShared() CPDB_RELEASE_SHARED() {
    MutexLock l(mu_);
    if (--readers_ == 0) can_write_.NotifyOne();
  }

  void LockExclusive() CPDB_ACQUIRE() {
    // The exclusive wait is always recorded — it IS the group-commit
    // combining window (readers draining while the cohort gathers).
    obs::Histogram* h = excl_wait_us_;
    const double start_us = h != nullptr ? obs::NowMicros() : 0;
    MutexLock l(mu_);
    ++writers_waiting_;
    while (writer_ || readers_ > 0) can_write_.Wait(mu_);
    --writers_waiting_;
    writer_ = true;
    if (h != nullptr) h->Record(obs::NowMicros() - start_us);
  }

  void UnlockExclusive() CPDB_RELEASE() {
    MutexLock l(mu_);
    writer_ = false;
    can_write_.NotifyOne();
    can_read_.NotifyAll();
  }

  /// Wait-latency sinks: `shared_wait` records how long contended shared
  /// acquires blocked (uncontended ones record nothing — see LockShared),
  /// `excl_wait` every exclusive acquire's wait. Either may be null. Set
  /// before the latch sees concurrent traffic (Engine's constructor).
  void set_metrics(obs::Histogram* shared_wait, obs::Histogram* excl_wait) {
    shared_wait_us_ = shared_wait;
    excl_wait_us_ = excl_wait;
  }

  /// RAII shared grant. Deliberately not movable: Engine::Read() and
  /// Session::ReadLock() return one by value through guaranteed copy
  /// elision, and a moved-from scoped capability is the one state the
  /// thread-safety analysis cannot track.
  class CPDB_SCOPED_CAPABILITY ReadGuard {
   public:
    explicit ReadGuard(SharedLatch& latch) CPDB_ACQUIRE_SHARED(latch)
        : latch_(latch) {
      latch_.LockShared();
    }
    ~ReadGuard() CPDB_RELEASE() { latch_.UnlockShared(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ReadGuard(ReadGuard&&) = delete;
    ReadGuard& operator=(ReadGuard&&) = delete;

   private:
    SharedLatch& latch_;
  };

  /// RAII exclusive grant (same movability rules as ReadGuard).
  class CPDB_SCOPED_CAPABILITY WriteGuard {
   public:
    explicit WriteGuard(SharedLatch& latch) CPDB_ACQUIRE(latch)
        : latch_(latch) {
      latch_.LockExclusive();
    }
    ~WriteGuard() CPDB_RELEASE() { latch_.UnlockExclusive(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;
    WriteGuard(WriteGuard&&) = delete;
    WriteGuard& operator=(WriteGuard&&) = delete;

   private:
    SharedLatch& latch_;
  };

 private:
  Mutex mu_;
  CondVar can_read_;
  CondVar can_write_;
  size_t readers_ CPDB_GUARDED_BY(mu_) = 0;
  size_t writers_waiting_ CPDB_GUARDED_BY(mu_) = 0;
  bool writer_ CPDB_GUARDED_BY(mu_) = false;
  /// Set once before concurrent use (set_metrics); read-only after.
  obs::Histogram* shared_wait_us_ = nullptr;
  obs::Histogram* excl_wait_us_ = nullptr;
};

}  // namespace cpdb::service
