#include "service/session.h"

#include <utility>

namespace cpdb::service {

Status Session::Apply(const update::Update& u) {
  if (per_op_) {
    // One op = one transaction (N/H): apply under the exclusive grant and
    // ride the cohort's single fsync.
    return CommitTraced([&] { return editor_->ApplyUpdate(u); });
  }
  return editor_->ApplyUpdate(u);
}

Status Session::ApplyScript(const update::Script& script, size_t* applied) {
  if (per_op_) {
    // The whole staged batch (one tid per op, one WriteRecords, one
    // native write) is one commit unit.
    return CommitTraced(
        [&] { return editor_->ApplyScript(script, applied); });
  }
  return editor_->ApplyScript(script, applied);
}

Status Session::Commit() {
  if (per_op_) return editor_->Commit();  // store-level no-op, latch-free
  return CommitTraced([&] { return editor_->Commit(); });
}

Status Session::CommitTraced(std::function<Status()> apply) {
  // Untraced commits (the common case) open no span and render nothing.
  obs::SpanCollector* trace = trace_sink_;
  const uint64_t span =
      trace != nullptr ? trace->Open("commit.execute", trace_parent_) : 0;
  Status st = engine_->Commit(std::move(apply), trace, span);
  // Hiding a curator's own committed work from their queries would be
  // absurd: the provenance view's bound moves to the new watermark. The
  // tree stays as acquired; swapping it is the pool's refresh.
  if (st.ok()) backend_view_.set_read_watermark(engine_->CommittedTid());
  if (obs::Span* s = trace != nullptr ? trace->Find(span) : nullptr) {
    // The queue filled in the stage children and the cohort detail; the
    // tid is the session's to know (minted inside the apply closure).
    if (st.ok()) s->tid = LastCommittedTid();
    trace->Close(span);
  }
  return st;
}

Status Session::Abort() { return editor_->Abort(); }

SessionPool::SessionPool(Engine* engine, SessionOptions options)
    : engine_(engine),
      options_(std::move(options)),
      built_(engine->metrics().GetCounter("cpdb_sessions_built_total",
                                          "Sessions built from scratch")),
      reused_(engine->metrics().GetCounter("cpdb_sessions_reused_total",
                                           "Pooled sessions handed back out")),
      refreshed_(engine->metrics().GetCounter(
          "cpdb_sessions_refreshed_total",
          "Stale pooled sessions refreshed in place")),
      rebuilds_(engine->metrics().GetCounter(
          "cpdb_snapshot_rebuilds_total", "Snapshots taken from the target")),
      rebuild_rows_(engine->metrics().GetCounter(
          "cpdb_snapshot_rebuild_rows_total",
          "Rows the target shipped for snapshots")) {}

Result<std::unique_ptr<Session>> SessionPool::Acquire() {
  CPDB_RETURN_IF_ERROR(engine_->Running());
  std::unique_ptr<Session> s;
  {
    MutexLock l(mu_);
    if (!free_.empty()) {
      s = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (s == nullptr) return Build();
  if (s->snapshot_tid_ != engine_->CommittedTid()) {
    // Stale: transactions committed since this session was pooled. Swap
    // its target subtree for the committed snapshot instead of tearing
    // the session down. The swap frees the old subtree and touches only
    // this session, so it runs after build_mu_ is released: the sessions
    // queued behind this one reach the cached snapshot sooner.
    tree::Tree snapshot;
    {
      MutexLock build_lock(build_mu_);
      CPDB_ASSIGN_OR_RETURN(snapshot, Snapshot(s.get()));
    }
    CPDB_RETURN_IF_ERROR(s->editor_->ResetTargetSnapshot(std::move(snapshot)));
    refreshed_->Inc();
  }
  reused_->Inc();
  return s;
}

Result<tree::Tree> SessionPool::Snapshot(Session* s) {
  if (cached_ == nullptr || cached_tid_ != engine_->CommittedTid()) {
    // A new watermark. Under a shared grant the tree and the watermark
    // come from one committed state, and the target's cost model (a
    // relational target charges the shared database's from TreeFromDb)
    // moves only for this read; build_mu_ keeps other snapshots off it.
    auto guard = engine_->Read();
    const int64_t committed = engine_->CommittedTid();
    relstore::CostModel& cost = engine_->target()->cost();
    const size_t rows_before = cost.RowsMoved();
    CPDB_ASSIGN_OR_RETURN(tree::Tree t, engine_->target()->TreeFromDb());
    rebuilds_->Inc();
    rebuild_rows_->Inc(cost.RowsMoved() - rows_before);
    cached_ = std::make_shared<const tree::Tree>(std::move(t));
    cached_tid_ = committed;
  }
  // The cached tree is the committed state at cached_tid_, and nothing
  // writes it, so cloning it takes no grant: a session acquired while a
  // cohort is in flight shares the snapshot instead of waiting for the
  // cohort and then reading the target again. The provenance half of the
  // snapshot: reads through the session's view stop at the same
  // watermark (ScanSpec::visible_col).
  s->snapshot_tid_ = cached_tid_;
  s->backend_view_.set_read_watermark(cached_tid_);
  return cached_->Clone();
}

Result<std::unique_ptr<Session>> SessionPool::Build() {
  // One builder at a time: mounting a relational source charges the
  // shared database's CostModel from its TreeFromDb, which only this
  // serialization keeps race-free (Release and Acquire's reuse stay on
  // mu_ so they never block behind a slow build).
  MutexLock build_lock(build_mu_);
  std::unique_ptr<Session> s(new Session());
  s->engine_ = engine_;
  s->options_ = options_;
  s->per_op_ = options_.strategy == provenance::Strategy::kNaive ||
               options_.strategy == provenance::Strategy::kHierarchical;
  s->cost_.set_params(engine_->db()->cost().params());
  s->backend_view_ =
      provenance::ProvBackend::View(engine_->backend(), &s->cost_);

  CPDB_ASSIGN_OR_RETURN(tree::Tree snapshot, Snapshot(s.get()));
  EditorOptions opts;
  opts.strategy = options_.strategy;
  opts.first_tid = s->snapshot_tid_ + 1;
  opts.tid_allocator = [engine = engine_] { return engine->NextTid(); };
  opts.defer_sync = true;  // the engine's cohort seal owns the barrier
  CPDB_ASSIGN_OR_RETURN(
      s->editor_,
      Editor::CreateWithSnapshot(engine_->target(), &s->backend_view_,
                                 std::move(snapshot), std::move(opts)));
  for (wrap::SourceDb* src : options_.sources) {
    CPDB_RETURN_IF_ERROR(s->editor_->MountSource(src));
  }
  built_->Inc();
  return s;
}

void SessionPool::Release(std::unique_ptr<Session> session) {
  if (session == nullptr) return;
  if (session->editor_->PendingOps() > 0) (void)session->Abort();
  engine_->cost_totals().Add(session->cost_.Snap());
  session->cost_.Reset();
  MutexLock l(mu_);
  free_.push_back(std::move(session));
}

}  // namespace cpdb::service
