#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace cpdb {

/// Annotated wrapper over std::mutex — the only mutex type allowed in
/// src/service/ and src/storage/ (enforced by tools/lint/cpdb_lint.py).
///
/// std::mutex itself carries no thread-safety attributes in libstdc++, so
/// a raw `std::mutex` member silences Clang's -Wthread-safety instead of
/// feeding it: GUARDED_BY(raw_mu) fields would warn on every access
/// because std::lock_guard's acquisition is invisible to the analysis.
/// This wrapper is a CAPABILITY and its Lock/Unlock are ACQUIRE/RELEASE,
/// so "field X is only touched with mu_ held" becomes machine-checked.
class CPDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CPDB_ACQUIRE() { mu_.lock(); }
  void Unlock() CPDB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII exclusive hold on a Mutex (the std::lock_guard of this layer,
/// visible to the analysis). Deliberately neither copyable nor movable:
/// a moved-from scoped capability is exactly the state the analysis
/// cannot track.
class CPDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CPDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CPDB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  MutexLock(MutexLock&&) = delete;
  MutexLock& operator=(MutexLock&&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex.
///
/// Wait() takes the Mutex explicitly and is annotated REQUIRES(mu), so
/// forgetting the lock around a wait is a compile error under the
/// analysis, and the classic predicate loop stays visible to it:
///
///   mu_.Lock();                 // or MutexLock l(mu_);
///   while (!predicate) cv_.Wait(mu_);
///
/// (Use an explicit `while` loop, not a predicate lambda: the analysis
/// checks lambda bodies without the caller's lock set, so a lambda
/// reading GUARDED_BY fields would falsely warn.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires `mu` before
  /// returning. Spurious wakeups happen; always wait in a loop.
  void Wait(Mutex& mu) CPDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> l(mu.mu_, std::adopt_lock);
    cv_.wait(l);
    l.release();  // the caller keeps holding mu, as annotated
  }

  /// Timed Wait: returns false if `timeout_ms` elapsed without a notify
  /// (the predicate loop still applies — recheck it either way). For a
  /// bounded wait that must still wake promptly on a notify.
  bool WaitFor(Mutex& mu, int64_t timeout_ms) CPDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> l(mu.mu_, std::adopt_lock);
    auto st = cv_.wait_for(l, std::chrono::milliseconds(timeout_ms));
    l.release();  // the caller keeps holding mu, as annotated
    return st == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cpdb
