#include "service/session.h"

#include <utility>

namespace cpdb::service {

Session::~Session() {
  if (engine_ != nullptr) engine_->snapshots().Unpin(pin_);
}

Status Session::Apply(const update::Update& u) {
  if (per_op_) {
    // One op = one transaction (N/H): apply under the exclusive grant and
    // ride the cohort's single fsync.
    return CommitTraced([&] { return editor_->ApplyUpdate(u); }, {});
  }
  return editor_->ApplyUpdate(u);
}

Status Session::ApplyScript(const update::Script& script, size_t* applied) {
  if (per_op_) {
    // The whole staged batch (one tid per op, one WriteRecords, one
    // native ApplyBatch) is one commit unit.
    return CommitTraced([&] { return editor_->ApplyScript(script, applied); },
                        {});
  }
  return editor_->ApplyScript(script, applied);
}

Status Session::Commit() {
  if (per_op_) return editor_->Commit();  // store-level no-op, latch-free
  // Declare the staged writeset before enqueueing: disjoint cohort-mates
  // go to the apply pool together (empty claims = in-order apply).
  return CommitTraced([&] { return editor_->Commit(); },
                      editor_->StagedWriteClaims());
}

Status Session::CommitTraced(std::function<Status()> apply,
                             std::vector<tree::Path> claims) {
  // Untraced commits (the common case) open no span and render nothing.
  obs::SpanCollector* trace = trace_sink_;
  const uint64_t span =
      trace != nullptr ? trace->Open("commit.execute", trace_parent_) : 0;
  Status st = engine_->Commit(std::move(apply), std::move(claims), trace, span);
  if (st.ok()) AdvanceReadWatermark();
  if (obs::Span* s = trace != nullptr ? trace->Find(span) : nullptr) {
    // The queue filled in the stage children and the cohort detail; the
    // tid is the session's to know (minted inside the apply closure).
    if (st.ok()) s->tid = LastCommittedTid();
    trace->Close(span);
  }
  return st;
}

void Session::AdvanceReadWatermark() {
  // The session just committed: its own records are younger than its
  // pinned snapshot, and hiding a curator's own committed work from their
  // queries would be absurd. Advance the provenance view's bound to the
  // new committed watermark (the pinned TREE stays as acquired — swapping
  // it is the pool's refresh, not the commit path).
  backend_view_.set_read_watermark(engine_->CommittedTid());
  // March the pin forward too. The universe's copy-on-write nodes are
  // owned by the universe itself, so the old pin's only effect was to
  // hold the version chain's GC back — a job for idle READERS at old
  // snapshots, not for a session that just advanced the committed state.
  SnapshotManager& snaps = engine_->snapshots();
  SnapshotManager::Pin fresh = snaps.PinLatest();
  if (fresh.seq != 0) {
    snaps.Unpin(pin_);
    pin_ = std::move(fresh);
  }
}

Status Session::Abort() { return editor_->Abort(); }

Result<std::unique_ptr<Session>> SessionPool::Acquire() {
  for (;;) {
    std::unique_ptr<Session> s;
    {
      MutexLock l(mu_);
      if (free_.empty()) break;
      s = std::move(free_.back());
      free_.pop_back();
    }
    // Pooled sessions hold no pin (idle inventory must never hold back
    // version GC), so even the fresh-session fast path re-pins on the
    // way out. When the pin lands exactly at the session's watermark the
    // tree is current and handed back untouched; a race past the
    // staleness check just falls into the refresh below.
    if (s->snapshot_tid_ == engine_->CommittedTid()) {
      SnapshotManager::Pin pin;
      if (EnsureLatestPinned(&pin)) {
        if (pin.tid == s->snapshot_tid_) {
          s->pin_ = std::move(pin);
          MutexLock l(mu_);
          ++reused_;
          return s;
        }
        engine_->snapshots().Unpin(pin);
      }
    }
    // Stale: committed transactions landed since this session was
    // pooled. Re-pin the committed version and swap the target subtree —
    // O(1), no scan — instead of tearing the session down. Runs outside
    // mu_: a lazy publish takes a read grant, and the pool must not stall
    // behind an in-flight cohort.
    if (Refresh(s.get())) {
      MutexLock l(mu_);
      ++reused_;
      ++refreshed_;
      return s;
    }
    // The chain could not serve (target without cheap snapshots, or a
    // transaction left staged). Drop; the destructor releases the pin.
  }
  return Build();
}

bool SessionPool::EnsureLatestPinned(SnapshotManager::Pin* pin) {
  SnapshotManager& snaps = engine_->snapshots();
  // Read the watermark BEFORE pinning: the chain only advances, so a pin
  // at least as new as `committed` is current — the reverse order would
  // misread a commit that lands in between as a lagging chain.
  int64_t committed = engine_->CommittedTid();
  *pin = snaps.PinLatest();
  if (pin->seq != 0 && pin->tid >= committed) return true;
  snaps.Unpin(*pin);
  if (!engine_->target()->CheapSnapshots()) return false;
  // Lazy publish: cohorts only advance the watermark (see
  // Engine::PublishSnapshot for why), so the first acquire at a new
  // watermark materializes the version — an O(1) copy-on-write clone for
  // cheap-snapshot targets — under a shared grant, so the tree and the
  // watermark come from the same committed state.
  auto guard = engine_->Read();
  committed = engine_->CommittedTid();
  auto t = engine_->target()->TreeFromDb();
  if (!t.ok()) return false;
  snaps.Publish(committed, std::move(*t));
  *pin = snaps.PinLatest();
  return pin->seq != 0;
}

bool SessionPool::Refresh(Session* s) {
  SnapshotManager& snaps = engine_->snapshots();
  SnapshotManager::Pin pin;
  if (!EnsureLatestPinned(&pin)) return false;
  Status st = s->editor_->ResetTargetSnapshot(pin.root->Clone());
  if (!st.ok()) {
    snaps.Unpin(pin);
    return false;
  }
  snaps.Unpin(s->pin_);
  s->pin_ = std::move(pin);
  s->snapshot_tid_ = s->pin_.tid;
  s->backend_view_.set_read_watermark(s->snapshot_tid_);
  snaps.NoteRefresh();
  return true;
}

Result<tree::Tree> SessionPool::AcquireSnapshot(Session* s) {
  SnapshotManager& snaps = engine_->snapshots();
  SnapshotManager::Pin pin;
  if (EnsureLatestPinned(&pin)) {
    // The chain serves (directly or via a lazy publish): a CoW clone of
    // the pinned root is O(fanout), not O(database).
    s->pin_ = std::move(pin);
    s->snapshot_tid_ = s->pin_.tid;
    return s->pin_.root->Clone();
  }

  // No cheap snapshots: materialize the committed state with a full scan,
  // under a shared grant so the tree and the watermark come from the same
  // committed state. The scan is counted (NodeCount is the modelled row
  // transfer); the warm-pool acceptance test asserts this counter stays
  // flat under write traffic. Still published: until the next commit,
  // other builds can pin it instead of re-scanning.
  auto guard = engine_->Read();
  int64_t tid = engine_->CommittedTid();
  CPDB_ASSIGN_OR_RETURN(tree::Tree t, engine_->target()->TreeFromDb());
  snaps.NoteRebuild(t.NodeCount());
  snaps.Publish(tid, t.Clone());
  SnapshotManager::Pin seeded = snaps.PinLatest();
  if (seeded.seq != 0 && seeded.tid == tid) {
    s->pin_ = std::move(seeded);
  } else {
    snaps.Unpin(seeded);
  }
  s->snapshot_tid_ = tid;
  return t;
}

Result<std::unique_ptr<Session>> SessionPool::Build() {
  // One builder at a time: a bootstrap materialization reads the shared
  // wrappers, and a relational target/source charges the shared database's
  // CostModel from TreeFromDb — safe against committers via the read
  // grant in AcquireSnapshot, and against other builders only by this
  // serialization (Release and Acquire stay on mu_ so they never block
  // behind a slow snapshot).
  MutexLock build_lock(build_mu_);
  std::unique_ptr<Session> s(new Session());
  s->engine_ = engine_;
  s->options_ = options_;
  s->per_op_ = options_.strategy == provenance::Strategy::kNaive ||
               options_.strategy == provenance::Strategy::kHierarchical;
  s->cost_.set_params(engine_->db()->cost().params());
  s->backend_view_ =
      provenance::ProvBackend::View(engine_->backend(), &s->cost_);

  CPDB_ASSIGN_OR_RETURN(tree::Tree snapshot, AcquireSnapshot(s.get()));
  // The relational half of the snapshot: provenance reads through this
  // session's view stop at the pinned watermark (ScanSpec::visible_col).
  s->backend_view_.set_read_watermark(s->snapshot_tid_);
  EditorOptions opts;
  opts.strategy = options_.strategy;
  opts.first_tid = s->snapshot_tid_ + 1;
  opts.record_txn_meta = options_.record_txn_meta;
  opts.user = options_.user;
  opts.tid_allocator = [engine = engine_] { return engine->NextTid(); };
  opts.defer_sync = true;  // the engine's cohort seal owns the barrier
  CPDB_ASSIGN_OR_RETURN(
      s->editor_,
      Editor::CreateWithSnapshot(engine_->target(), &s->backend_view_,
                                 std::move(snapshot), std::move(opts)));
  for (wrap::SourceDb* src : options_.sources) {
    CPDB_RETURN_IF_ERROR(s->editor_->MountSource(src));
  }
  MutexLock l(mu_);
  ++built_;
  return s;
}

void SessionPool::Release(std::unique_ptr<Session> session) {
  if (session == nullptr) return;
  if (session->editor_->PendingOps() > 0 ||
      session->editor_->store()->HasPending()) {
    (void)session->Abort();
  }
  engine_->cost_totals().Add(session->cost_.Snap());
  session->cost_.Reset();
  // A pooled session is not a live reader: drop its pin entirely so idle
  // inventory never holds back version GC — a pooled session that is
  // never re-acquired would otherwise pin its release-time version
  // forever. The tree stays valid regardless (the universe owns its
  // copy-on-write nodes); Acquire re-pins before handing the session
  // back out.
  engine_->snapshots().Unpin(session->pin_);
  session->pin_ = SnapshotManager::Pin{};
  MutexLock l(mu_);
  free_.push_back(std::move(session));
}

size_t SessionPool::built() const {
  MutexLock l(mu_);
  return built_;
}

size_t SessionPool::reused() const {
  MutexLock l(mu_);
  return reused_;
}

size_t SessionPool::refreshed() const {
  MutexLock l(mu_);
  return refreshed_;
}

}  // namespace cpdb::service
