#include "service/commit_queue.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace cpdb::service {

namespace {

/// Writeset conflict = one claim is a prefix of (or equal to) another:
/// mutating a node's child map while another member descends through or
/// mutates inside that subtree. Disjoint (prefix-free) claims touch
/// disjoint node sets — see TreeTargetDb::PrepareParallelApply for why
/// the shared ancestors above the claims stay read-only.
bool Conflicts(const std::vector<tree::Path>& a,
               const std::vector<tree::Path>& b) {
  for (const tree::Path& pa : a) {
    for (const tree::Path& pb : b) {
      if (pa.IsPrefixOf(pb) || pb.IsPrefixOf(pa)) return true;
    }
  }
  return false;
}

}  // namespace

CommitQueue::~CommitQueue() {
  {
    MutexLock l(pool_mu_);
    pool_stop_ = true;
    pool_work_.NotifyAll();
  }
  for (std::thread& w : workers_) w.join();
}

void CommitQueue::EnableParallelApply(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status CommitQueue::Commit(std::function<Status()> apply,
                           std::vector<tree::Path> claims,
                           obs::SpanCollector* trace, uint64_t parent) {
  Request req;
  req.apply = std::move(apply);
  req.claims = std::move(claims);
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
                   " leader=" + (led ? "1" : "0") +
                   " parallel=" + (req.parallel ? "1" : "0") + " claims=";
    for (size_t i = 0; i < req.claims.size(); ++i) {
      if (i) span->detail.push_back(',');
      span->detail += req.claims[i].ToString();
    }
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
  uint64_t syncs_before = sync_probe_ ? sync_probe_() : 0;
  ApplyCohort(cohort);
  const double applied_us = obs::NowMicros();
  if (hooks.before_seal) hooks.before_seal(cohort.size());
  Status sealed = seal_(cohort.size());
  if (hooks.after_seal) hooks.after_seal(cohort.size());
  const double sealed_us = obs::NowMicros();
  if (sync_probe_ && sync_probe_() != syncs_before + 1) {
    // The ONE-seal contract is load-bearing for both durability (cohort =
    // one WAL record) and the perf model (fsyncs_per_commit = 1/cohort);
    // a member's apply closure running its own barrier silently breaks
    // crash atomicity, so this is a fail-stop, parallel apply or not.
    std::fprintf(stderr,
                 "CommitQueue: cohort of %zu sealed with %llu barriers, "
                 "expected exactly 1\n",
                 cohort.size(),
                 static_cast<unsigned long long>(sync_probe_() -
                                                 syncs_before));
    std::abort();
  }
  if (publish_) publish_();
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

void CommitQueue::ApplyCohort(const std::vector<Request*>& cohort) {
  size_t i = 0;
  while (i < cohort.size()) {
    // Grow a maximal run of consecutive members with declared writesets
    // that are pairwise disjoint. Members without claims, or the first
    // conflicting member, end the run (and apply in enqueue order, which
    // preserves their relative order with everything they overlap).
    size_t end = i + 1;
    if (!workers_.empty() && prepare_parallel_ && !cohort[i]->claims.empty()) {
      while (end < cohort.size() && !cohort[end]->claims.empty()) {
        bool disjoint = true;
        for (size_t k = i; k < end && disjoint; ++k) {
          disjoint = !Conflicts(cohort[k]->claims, cohort[end]->claims);
        }
        if (!disjoint) break;
        ++end;
      }
    }
    bool parallel = end - i >= 2;
    if (parallel) {
      std::vector<tree::Path> all_claims;
      for (size_t k = i; k < end; ++k) {
        all_claims.insert(all_claims.end(), cohort[k]->claims.begin(),
                          cohort[k]->claims.end());
      }
      parallel = prepare_parallel_(all_claims);
    }
    if (parallel) {
      std::vector<Request*> batch(cohort.begin() + static_cast<long>(i),
                                  cohort.begin() + static_cast<long>(end));
      for (Request* r : batch) r->parallel = true;
      RunParallelBatch(batch);
      if (metrics_.parallel_cohorts) metrics_.parallel_cohorts->Inc();
      if (metrics_.parallel_applies) {
        metrics_.parallel_applies->Inc(batch.size());
      }
      if (metrics_.parallel_batch) {
        metrics_.parallel_batch->Record(static_cast<double>(batch.size()));
      }
    } else {
      for (size_t k = i; k < end; ++k) {
        cohort[k]->result = cohort[k]->apply();
      }
    }
    i = end;
  }
}

void CommitQueue::RunParallelBatch(const std::vector<Request*>& batch) {
  pool_mu_.Lock();
  batch_ = &batch;
  batch_next_ = 0;
  batch_pending_ = batch.size();
  pool_work_.NotifyAll();
  // The leader applies too — with N workers, N+1 appliers drain the
  // batch, and on a loaded pool the leader never just waits.
  while (batch_next_ < batch_->size()) {
    size_t idx = batch_next_++;
    Request* r = (*batch_)[idx];
    pool_mu_.Unlock();
    r->result = r->apply();
    pool_mu_.Lock();
    if (--batch_pending_ == 0) pool_done_.NotifyAll();
  }
  while (batch_pending_ > 0) pool_done_.Wait(pool_mu_);
  batch_ = nullptr;
  pool_mu_.Unlock();
}

void CommitQueue::WorkerLoop() {
  pool_mu_.Lock();
  while (!pool_stop_) {
    if (batch_ == nullptr || batch_next_ >= batch_->size()) {
      pool_work_.Wait(pool_mu_);
      continue;
    }
    size_t idx = batch_next_++;
    Request* r = (*batch_)[idx];
    pool_mu_.Unlock();
    r->result = r->apply();
    pool_mu_.Lock();
    if (--batch_pending_ == 0) pool_done_.NotifyAll();
  }
  pool_mu_.Unlock();
}

size_t CommitQueue::Pending() const {
  MutexLock l(mu_);
  return queue_.size();
}

}  // namespace cpdb::service
