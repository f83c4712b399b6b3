#include "service/commit_queue.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace cpdb::service {

Status CommitQueue::Commit(std::function<Status()> apply,
                           obs::SpanCollector* trace, uint64_t parent) {
  Request req;
  req.apply = std::move(apply);
  req.enqueue_us = obs::NowMicros();

  bool led = false;
  {
    MutexLock l(mu_);
    queue_.push_back(&req);
    if (leader_active_) {
      // Follow: a leader is combining. Wake when our cohort sealed, or
      // when the finishing leader promoted us to run the next one. The
      // wait is on OUR request's CondVar — the leader wakes exactly the
      // threads whose state changed, not every committer in the building.
      while (!req.done && !req.leader) req.cv.Wait(mu_);
    }
    if (!req.done) {
      led = true;
      leader_active_ = true;
      RunCohort();
    }
  }
  // Post-done: the leader's stamps on `req` are ordered by the mu_
  // handshake. The member records its own stage durations — commits are
  // the unit the percentiles answer for, see Metrics.
  const double done_us = obs::NowMicros();
  const double stamps[] = {req.enqueue_us, req.lead_us, req.applied_us,
                           req.sealed_us, done_us};
  obs::Histogram* const sinks[] = {metrics_.queue_us, metrics_.apply_us,
                                   metrics_.seal_us, metrics_.wake_us};
  static const char* const kStages[] = {"commit.queue", "commit.apply",
                                        "commit.seal", "commit.wake"};
  const bool traced = trace != nullptr && trace->active();
  for (size_t i = 0; i < 4; ++i) {
    const double dur = stamps[i + 1] - stamps[i];
    if (sinks[i]) sinks[i]->Record(dur);
    if (traced) trace->AppendTimed(kStages[i], parent, stamps[i], dur);
  }
  if (metrics_.total_us) metrics_.total_us->Record(done_us - req.enqueue_us);
  if (obs::Span* span = traced ? trace->Find(parent) : nullptr) {
    span->detail = "cohort_size=" + std::to_string(req.cohort_size) +
                   " leader=" + (led ? "1" : "0");
  }
  return req.result;
}

void CommitQueue::RunCohort() {
  // Acquire the exclusive grant BEFORE draining: every committer that
  // arrives while we wait out the active readers joins this cohort and
  // rides our fsync — the opportunistic-combining window.
  mu_.Unlock();
  latch_->LockExclusive();
  mu_.Lock();
  std::vector<Request*> cohort(queue_.begin(), queue_.end());
  queue_.clear();
  TestHooks hooks = hooks_;  // per-cohort snapshot; hooks_ stays under mu_
  mu_.Unlock();

  // One leader-side stamp per stage boundary, shared by every member:
  // the cohort moves through the pipeline as a unit.
  const double lead_us = obs::NowMicros();
  const uint64_t records_before = wal_probe_ ? wal_probe_() : 0;
  // In enqueue order, on this thread: tids are minted inside the
  // closures, so tid order and apply order coincide.
  for (Request* r : cohort) r->result = r->apply();
  const uint64_t records_applied = wal_probe_ ? wal_probe_() : 0;
  const double applied_us = obs::NowMicros();
  if (hooks.before_seal) hooks.before_seal(cohort.size());
  Status sealed = seal_(cohort.size());
  if (hooks.after_seal) hooks.after_seal(cohort.size());
  const double sealed_us = obs::NowMicros();
  const uint64_t records_sealed = wal_probe_ ? wal_probe_() : 0;
  if (records_applied != records_before ||
      records_sealed > records_applied + 1) {
    // The ONE-seal contract is load-bearing for both durability (cohort =
    // one WAL record) and the perf model (fsyncs_per_commit = 1/cohort);
    // a member's apply closure running its own barrier silently breaks
    // crash atomicity, so this is a fail-stop.
    std::fprintf(stderr,
                 "CommitQueue: cohort of %zu logged %llu WAL records during "
                 "its applies and %llu in its seal, expected 0 and at most "
                 "1\n",
                 cohort.size(),
                 static_cast<unsigned long long>(records_applied -
                                                 records_before),
                 static_cast<unsigned long long>(records_sealed -
                                                 records_applied));
    std::abort();
  }
  if (sealed.ok() && publish_) publish_();
  latch_->UnlockExclusive();

  if (metrics_.cohort_size) {
    metrics_.cohort_size->Record(static_cast<double>(cohort.size()));
  }

  // Counted before any member is marked done: a committer that returned
  // (and a client that got OK) sees its own commit in the next scrape.
  // Cohorts are serialized by the exclusive grant, so the max_cohort
  // read-then-set cannot race another leader.
  if (metrics_.commits) metrics_.commits->Inc(cohort.size());
  if (metrics_.cohorts) metrics_.cohorts->Inc();
  if (metrics_.combined) metrics_.combined->Inc(cohort.size() - 1);
  if (metrics_.max_cohort &&
      static_cast<int64_t>(cohort.size()) > metrics_.max_cohort->Value()) {
    metrics_.max_cohort->Set(static_cast<int64_t>(cohort.size()));
  }

  mu_.Lock();
  for (Request* r : cohort) {
    if (!sealed.ok() && r->result.ok()) r->result = sealed;
    r->lead_us = lead_us;
    r->applied_us = applied_us;
    r->sealed_us = sealed_us;
    r->cohort_size = cohort.size();
    r->done = true;
    r->cv.NotifyOne();
  }
  // One cohort per leader: pass the baton so a hot queue cannot pin one
  // committer into combining forever.
  if (!queue_.empty()) {
    queue_.front()->leader = true;
    queue_.front()->cv.NotifyOne();
  } else {
    leader_active_ = false;
  }
}

size_t CommitQueue::Pending() const {
  MutexLock l(mu_);
  return queue_.size();
}

}  // namespace cpdb::service
