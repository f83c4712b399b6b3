#include "cpdb/editor.h"

#include <utility>

#include "update/parser.h"

namespace cpdb {

using provenance::Strategy;
using update::OpKind;
using update::Update;

Result<std::unique_ptr<Editor>> Editor::Create(
    wrap::TargetDb* target, provenance::ProvBackend* backend,
    EditorOptions options) {
  CPDB_ASSIGN_OR_RETURN(tree::Tree initial, target->TreeFromDb());
  return CreateWithSnapshot(target, backend, std::move(initial),
                            std::move(options));
}

Result<std::unique_ptr<Editor>> Editor::CreateWithSnapshot(
    wrap::TargetDb* target, provenance::ProvBackend* backend,
    tree::Tree target_snapshot, EditorOptions options) {
  std::unique_ptr<Editor> ed(new Editor(target, std::move(options)));
  ed->target_root_ = tree::Path({target->name()});
  CPDB_RETURN_IF_ERROR(
      ed->universe_.AddChild(target->name(), std::move(target_snapshot)));
  ed->store_ = provenance::MakeStore(ed->options_.strategy, backend,
                                     ed->options_.first_tid);
  if (ed->options_.tid_allocator) {
    ed->store_->set_tid_allocator(ed->options_.tid_allocator);
  }
  ed->query_ = std::make_unique<query::QueryEngine>(
      ed->store_.get(), ed->target_root_, &ed->universe_);
  if (ed->options_.enable_approx) {
    ed->approx_ = std::make_unique<query::ApproxProvStore>();
  }
  return ed;
}

Status Editor::ResetTargetSnapshot(tree::Tree snapshot) {
  if (!txn_script_.empty() || batching_ || store_->HasPending()) {
    return Status::FailedPrecondition(
        "cannot refresh the target snapshot with a transaction staged");
  }
  // O(1): unlink the old subtree, link the new one. The old nodes stay
  // alive exactly as long as some version (or another session) shares
  // them — copy-on-write reference counting is the deallocation policy.
  return universe_.ReplaceAt(target_root_, std::move(snapshot));
}

std::vector<tree::Path> Editor::StagedWriteClaims() const {
  std::vector<tree::Path> claims;
  claims.reserve(txn_script_.size());
  for (const Update& u : txn_script_) {
    // The node whose child map the native replay mutates: the insert/
    // delete target itself, the destination's parent for a paste
    // (TreeTargetDb::ApplyOne writes via PutChild on the parent).
    const tree::Path& p =
        u.kind == OpKind::kCopy ? u.target.Parent() : u.target;
    auto rel = p.RelativeTo(target_root_);
    if (!rel.ok()) return {};  // not rebasable: never parallelize
    claims.push_back(*std::move(rel));
  }
  // Normalize to a prefix-free set: drop duplicates and claims already
  // covered by an ancestor claim.
  std::vector<tree::Path> minimal;
  for (size_t i = 0; i < claims.size(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < claims.size() && !covered; ++j) {
      if (i == j) continue;
      if (claims[j] == claims[i]) {
        covered = j < i;  // keep the first occurrence only
      } else {
        covered = claims[j].IsPrefixOf(claims[i]);
      }
    }
    if (!covered) minimal.push_back(claims[i]);
  }
  return minimal;
}

Status Editor::MountSource(wrap::SourceDb* source) {
  if (started_) {
    return Status::FailedPrecondition(
        "sources must be mounted before the first update");
  }
  if (source->name() == target_->name()) {
    return Status::InvalidArgument("source label '" + source->name() +
                                   "' collides with the target");
  }
  if (sources_.count(source->name()) > 0) {
    return Status::AlreadyExists("source '" + source->name() +
                                 "' already mounted");
  }
  CPDB_ASSIGN_OR_RETURN(tree::Tree view, source->TreeFromDb());
  CPDB_RETURN_IF_ERROR(universe_.AddChild(source->name(), std::move(view)));
  sources_[source->name()] = source;
  return Status::OK();
}

Status Editor::ValidateUpdate(const Update& u) const {
  // "Insertions, copies, and deletes can only be performed in a subtree
  // of the target database T" (Section 2). Note this also rejects
  // deleting or overwriting the target root itself: a delete's target is
  // the *parent* of the removed edge, which for the root lies outside T.
  if (!target_root_.IsPrefixOf(u.target)) {
    return Status::InvalidArgument("updates must target '" +
                                   target_root_.ToString() + "', got '" +
                                   u.target.ToString() + "'");
  }
  if (u.kind == OpKind::kCopy && target_root_ == u.target) {
    return Status::InvalidArgument("cannot overwrite the target root");
  }
  return Status::OK();
}

void Editor::StagePasted(
    const Update& u, std::vector<std::optional<tree::Tree>>* out) const {
  if (u.kind == OpKind::kCopy) {
    const tree::Tree* pasted = universe_.Find(u.target);
    out->emplace_back(pasted == nullptr
                          ? std::optional<tree::Tree>()
                          : std::optional<tree::Tree>(pasted->Clone()));
  } else {
    out->emplace_back(std::nullopt);
  }
}

Result<std::vector<wrap::NativeOp>> Editor::BuildNativeOps(
    const update::Script& script,
    const std::vector<std::optional<tree::Tree>>& pasted) const {
  std::vector<wrap::NativeOp> native;
  native.reserve(script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    const tree::Tree* payload =
        i < pasted.size() && pasted[i].has_value() ? &*pasted[i] : nullptr;
    CPDB_ASSIGN_OR_RETURN(wrap::NativeOp op,
                          MakeNativeOp(script[i], payload));
    native.push_back(std::move(op));
  }
  return native;
}

Result<wrap::NativeOp> Editor::MakeNativeOp(const Update& u,
                                            const tree::Tree* pasted) const {
  // Rebase universe-absolute paths to target-relative ones.
  wrap::NativeOp op;
  op.update = u;
  CPDB_ASSIGN_OR_RETURN(op.update.target, u.target.RelativeTo(target_root_));
  if (u.kind == OpKind::kCopy) {
    if (pasted == nullptr) {
      return Status::Internal("pasted subtree missing for native push");
    }
    op.update.source = tree::Path();  // native stores only receive the data
    op.pasted = pasted;
  }
  return op;
}

Status Editor::SyncDurable() {
  // Deferred mode: the service layer's group commit owns the barrier and
  // seals a whole cohort of transactions with one Sync.
  if (options_.defer_sync) return Status::OK();
  CPDB_RETURN_IF_ERROR(store_->backend()->db()->Sync());
  return target_->Sync();
}

Status Editor::FinishCommitted(const std::function<Status()>& tail) {
  Status rest = tail();
  Status synced = SyncDurable();
  if (!rest.ok()) return rest;
  return synced;
}

Status Editor::RecordMetaIfEnabled(int64_t tid, const std::string& note) {
  if (!options_.record_txn_meta) return Status::OK();
  provenance::TxnMeta meta;
  meta.tid = tid;
  meta.user = options_.user;
  meta.commit_seq = tid;
  meta.note = note;
  return store_->backend()->WriteTxnMeta(meta);
}

Status Editor::ApplyUpdate(const Update& u) {
  CPDB_RETURN_IF_ERROR(ValidateUpdate(u));
  if (!started_) {
    started_ = true;
    if (options_.enable_archive) {
      archive::VersionArchive::Options aopt;
      aopt.checkpoint_every = options_.archive_checkpoint_every;
      archive_ = std::make_unique<archive::VersionArchive>(
          options_.first_tid - 1, universe_.Clone(), aopt);
    }
  }

  update::ApplyEffect effect;
  CPDB_RETURN_IF_ERROR(undo_.ApplyTracked(&universe_, u, &effect));
  batch_ops_.push_back({u.kind, std::move(effect)});

  if (PerOpStrategy()) {
    // N/H: stage the native replay payload too, exactly as a script does.
    // Inside ApplyScript/BulkCopy the flush waits for the script's end;
    // otherwise the op flushes now as a batch of one — its own
    // transaction. The undo log keeps accumulating until the flush, so a
    // failed flush can unwind the whole staged batch.
    StagePasted(u, &batch_pasted_);
    batch_script_.push_back(u);
    return batching_ ? Status::OK() : FlushBatch();
  }

  // T/HT: the staged op joins the open transaction's provlist at once, as
  // a batch of one; its provenance and native writes wait for Commit().
  Status tracked = store_->TrackBatch(batch_ops_);
  batch_ops_.clear();
  if (!tracked.ok()) {
    // Keep target and provenance consistent: roll the update back.
    Status revert = undo_.RevertAll(&universe_);
    return revert.ok() ? tracked : revert;
  }
  txn_script_.push_back(u);
  ++total_ops_;
  // Deferred native push at Commit() needs the op-time paste payload.
  StagePasted(u, &txn_pasted_);
  return Status::OK();
}

Status Editor::Insert(const tree::Path& at, const std::string& label,
                      std::optional<tree::Value> value) {
  return ApplyUpdate(Update::Insert(at, label, std::move(value)));
}

Status Editor::Delete(const tree::Path& at, const std::string& label) {
  return ApplyUpdate(Update::Delete(at, label));
}

Status Editor::CopyPaste(const tree::Path& src, const tree::Path& dst) {
  return ApplyUpdate(Update::Copy(src, dst));
}

Status Editor::FlushBatch(size_t* flushed, std::vector<int64_t>* tids_out) {
  if (flushed != nullptr) *flushed = 0;
  std::vector<provenance::TrackedOp> ops = std::move(batch_ops_);
  update::Script script = std::move(batch_script_);
  std::vector<std::optional<tree::Tree>> pasted = std::move(batch_pasted_);
  batch_ops_.clear();
  batch_script_.clear();
  batch_pasted_.clear();
  if (ops.empty()) return Status::OK();

  // Group commit: the whole staged batch reaches the provenance backend
  // in one WriteRecords (via TrackBatch) and the target in one native
  // ApplyBatch. Per-op tids/records are preserved by the store.
  std::vector<int64_t> tids;
  Status tracked = store_->TrackBatch(ops, &tids);
  if (!tracked.ok()) {
    // Nothing was written (TrackBatch is atomic on the backend); unwind
    // the staged updates so universe and stores stay consistent.
    Status revert = undo_.RevertAll(&universe_);
    return revert.ok() ? tracked : revert;
  }
  // The batch is committed in the provenance store: from here on it must
  // never be unwound from the universe, so retire the undo entries now —
  // a later single-op tracking failure would otherwise RevertAll straight
  // through this committed batch.
  undo_.Clear();
  total_ops_ += ops.size();
  if (flushed != nullptr) *flushed = ops.size();
  if (tids_out != nullptr) *tids_out = tids;
  // A failure from here on is a native replay of already-committed
  // updates going wrong: like a failed commit replay, the native store
  // then needs a reload (universe and provenance remain consistent). The
  // whole group-committed batch rides one fsync — the durability win of
  // the staged write path.
  return FinishCommitted([&]() -> Status {
    CPDB_ASSIGN_OR_RETURN(std::vector<wrap::NativeOp> native,
                          BuildNativeOps(script, pasted));
    CPDB_RETURN_IF_ERROR(target_->ApplyBatch(native));
    if (archive_ != nullptr) {
      // One version per op, the batch's post-state closing the run.
      std::vector<update::Script> versions;
      versions.reserve(script.size());
      for (const Update& u : script) versions.push_back(update::Script{u});
      CPDB_RETURN_IF_ERROR(
          archive_->Record(tids.front(), std::move(versions), universe_));
    }
    if (options_.record_txn_meta) {
      for (size_t i = 0; i < script.size() && i < tids.size(); ++i) {
        CPDB_RETURN_IF_ERROR(
            RecordMetaIfEnabled(tids[i], script[i].ToString()));
      }
    }
    return Status::OK();
  });
}

Status Editor::ApplyScript(const update::Script& script, size_t* applied) {
  return ApplyStaged(script, applied, nullptr);
}

Status Editor::ApplyStaged(const update::Script& script, size_t* applied,
                           std::vector<int64_t>* tids) {
  size_t n = 0;
  Status op_status = Status::OK();
  batching_ = true;
  for (const Update& u : script) {
    op_status = ApplyUpdate(u);
    if (!op_status.ok()) break;
    ++n;
  }
  batching_ = false;
  if (PerOpStrategy()) {
    // Per-op transactions: a later op's failure does not unwind committed
    // predecessors, so the applied prefix still flushes. `flushed` is 0
    // only when tracking failed and the batch was unwound; a
    // native-replay failure reports its error with the ops still applied.
    size_t flushed = 0;
    Status flush_status = FlushBatch(&flushed, tids);
    if (flushed < n) n = flushed;
    if (!flush_status.ok()) op_status = flush_status;
  }
  if (applied != nullptr) *applied = n;
  return op_status;
}

Status Editor::ApplyScriptText(const std::string& text) {
  CPDB_ASSIGN_OR_RETURN(update::Script script, update::ParseScript(text));
  return ApplyScript(script);
}

Result<size_t> Editor::BulkCopy(const update::BulkCopySpec& spec) {
  CPDB_ASSIGN_OR_RETURN(update::Script script,
                        update::ExpandBulkCopy(universe_, spec));
  // Validate the destination restriction before touching anything.
  for (const Update& u : script) {
    CPDB_RETURN_IF_ERROR(ValidateUpdate(u));
  }
  std::vector<int64_t> tids;
  CPDB_RETURN_IF_ERROR(ApplyStaged(script, nullptr, &tids));
  if (approx_ != nullptr) {
    query::ApproxRecord rec;
    // N/H committed one tid per copy; T/HT's open transaction commits the
    // whole bulk under the one tid it is about to take.
    rec.tid = tids.empty() ? store_->CurrentTid() : tids.front();
    rec.last_tid = tids.empty() ? rec.tid : tids.back();
    rec.op = provenance::ProvOp::kCopy;
    rec.loc = spec.dst;
    rec.src = spec.src;
    approx_->Track(std::move(rec));
  }
  return script.size();
}

Status Editor::Commit() {
  update::Script script = std::move(txn_script_);
  txn_script_.clear();
  std::vector<std::optional<tree::Tree>> pasted = std::move(txn_pasted_);
  txn_pasted_.clear();
  CPDB_RETURN_IF_ERROR(store_->Commit());
  if (!PerOpStrategy()) {
    // The committed transaction's native writes ride one modelled client
    // call, matching the provenance store's one-WriteRecords commit, and
    // the whole transaction seals under one fsync whatever its length.
    CPDB_RETURN_IF_ERROR(FinishCommitted([&]() -> Status {
      CPDB_ASSIGN_OR_RETURN(std::vector<wrap::NativeOp> native,
                            BuildNativeOps(script, pasted));
      CPDB_RETURN_IF_ERROR(target_->ApplyBatch(native));
      int64_t tid = store_->LastCommittedTid();
      if (archive_ != nullptr) {
        CPDB_RETURN_IF_ERROR(archive_->Record(tid, {script}, universe_));
      }
      CPDB_RETURN_IF_ERROR(RecordMetaIfEnabled(
          tid, std::to_string(script.size()) + " ops"));
      undo_.Clear();
      return Status::OK();
    }));
  }
  return Status::OK();
}

Status Editor::Abort() {
  if (PerOpStrategy()) {
    return Status::FailedPrecondition(
        "per-operation strategies auto-commit; nothing to abort");
  }
  store_->AbortPending();
  txn_script_.clear();
  txn_pasted_.clear();
  return undo_.RevertAll(&universe_);
}

}  // namespace cpdb
