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
  ed->query_ = std::make_unique<query::QueryEngine>(ed->store_.get(),
                                                    ed->target_root_);
  if (ed->options_.enable_approx) {
    ed->approx_ = std::make_unique<query::ApproxProvStore>();
  }
  return ed;
}

Status Editor::ResetTargetSnapshot(tree::Tree snapshot) {
  if (PendingOps() > 0) {
    return Status::FailedPrecondition(
        "cannot refresh the target snapshot with a transaction staged");
  }
  // O(1): unlink the old subtree, link the new one. The old nodes stay
  // alive exactly as long as a snapshot (or another session) shares them
  // — copy-on-write reference counting is the deallocation policy.
  return universe_.ReplaceAt(target_root_, std::move(snapshot));
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

Result<std::vector<wrap::NativeOp>> Editor::BuildNativeOps() const {
  std::vector<wrap::NativeOp> native;
  native.reserve(unit_.script.size());
  for (size_t i = 0; i < unit_.script.size(); ++i) {
    const Update& u = unit_.script[i];
    // Rebase universe-absolute paths to target-relative ones.
    wrap::NativeOp op;
    op.update = u;
    CPDB_ASSIGN_OR_RETURN(op.update.target, u.target.RelativeTo(target_root_));
    if (u.kind == OpKind::kCopy) {
      if (!unit_.pasted[i].has_value()) {
        return Status::Internal("pasted subtree missing for native replay");
      }
      op.update.source = tree::Path();  // native stores only receive the data
      op.pasted = &*unit_.pasted[i];
    }
    native.push_back(std::move(op));
  }
  return native;
}

Status Editor::SyncDurable() {
  // Deferred mode: the service layer's group commit owns the barrier and
  // seals a whole cohort of transactions with one Sync.
  if (options_.defer_sync) return Status::OK();
  CPDB_RETURN_IF_ERROR(store_->backend()->db()->Sync());
  return target_->Sync();
}

Status Editor::Stage(const Update& u) {
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
  unit_.ops.push_back({u.kind, std::move(effect)});
  unit_.script.push_back(u);
  // The paste payload is cloned now, while the universe still shows
  // exactly what the op pasted.
  const tree::Tree* pasted =
      u.kind == OpKind::kCopy ? universe_.Find(u.target) : nullptr;
  unit_.pasted.emplace_back(pasted == nullptr
                                ? std::optional<tree::Tree>()
                                : std::optional<tree::Tree>(pasted->Clone()));
  if (PerOpStrategy()) return Status::OK();

  // T/HT: the op joins the open transaction's provlist at once, as a
  // batch of one; its provenance and native writes wait for the seal.
  Status tracked = store_->TrackBatch(unit_.ops);
  unit_.ops.clear();
  return tracked.ok() ? tracked : Unwind(tracked);
}

Status Editor::Seal() {
  const bool per_op = PerOpStrategy();
  if (per_op && unit_.script.empty()) {
    unit_.Clear();
    return Status::OK();
  }
  // The target checks the unit's whole native replay first: a replay it
  // refuses unwinds the unit before anything is written, as a refused
  // provenance write does.
  Result<std::vector<wrap::NativeOp>> native = BuildNativeOps();
  if (!native.ok()) return Unwind(native.status());
  Result<wrap::NativeWrite> write = target_->Prepare(*native);
  if (!write.ok()) return Unwind(write.status());
  // Group commit: the whole unit reaches the provenance backend in one
  // WriteRecords — N/H's TrackBatch with per-op tids and records, T/HT's
  // provlist flush — and a failure there writes nothing.
  Status tracked = per_op ? store_->TrackBatch(unit_.ops, &unit_.tids)
                          : store_->Commit();
  if (!tracked.ok()) return Unwind(tracked);
  if (!per_op) unit_.tids.push_back(store_->LastCommittedTid());

  // The unit is committed in the provenance store: from here on it must
  // never be unwound from the universe, so retire its undo entries now.
  undo_.Clear();
  total_ops_ += unit_.script.size();
  for (query::ApproxRecord& glob : unit_.globs) {
    glob.tid = unit_.tids.front();
    glob.last_tid = unit_.tids.back();
    approx_->Track(std::move(glob));
  }
  // A failure from here on is a checked native write or a later step
  // going wrong: the native store then needs a reload (universe and
  // provenance remain consistent). The whole unit rides one fsync either
  // way.
  Status tail = [&]() -> Status {
    CPDB_RETURN_IF_ERROR((*write)());
    if (archive_ != nullptr) {
      // One version per tid, the unit's post-state closing the run.
      std::vector<update::Script> versions;
      if (per_op) {
        versions.reserve(unit_.script.size());
        for (const Update& u : unit_.script) {
          versions.push_back(update::Script{u});
        }
      } else {
        versions.push_back(unit_.script);
      }
      CPDB_RETURN_IF_ERROR(
          archive_->Record(unit_.tids.front(), std::move(versions), universe_));
    }
    if (!options_.record_txn_meta) return Status::OK();
    for (size_t i = 0; i < unit_.tids.size(); ++i) {
      provenance::TxnMeta meta;
      meta.tid = unit_.tids[i];
      meta.user = options_.user;
      meta.commit_seq = unit_.tids[i];
      meta.note = per_op ? unit_.script[i].ToString()
                         : std::to_string(unit_.script.size()) + " ops";
      CPDB_RETURN_IF_ERROR(store_->backend()->WriteTxnMeta(meta));
    }
    return Status::OK();
  }();
  Status synced = SyncDurable();
  unit_.Clear();
  return tail.ok() ? synced : tail;
}

Status Editor::Unwind(Status cause) {
  store_->AbortPending();
  Status reverted = undo_.RevertAll(&universe_);
  unit_.Clear();
  return reverted.ok() ? cause : reverted;
}

Status Editor::ApplyUpdate(const Update& u) {
  CPDB_RETURN_IF_ERROR(Stage(u));
  return PerOpStrategy() ? Seal() : Status::OK();
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

Status Editor::ApplyScript(const update::Script& script, size_t* applied) {
  // This script's ops still in effect at the end are the growth of
  // committed plus staged ops; an unwound unit leaves none.
  const size_t before = TotalOps() + PendingOps();
  Status st = Status::OK();
  for (const Update& u : script) {
    st = Stage(u);
    if (!st.ok()) break;
  }
  if (PerOpStrategy()) {
    // Per-op transactions: a later op's failure does not undo committed
    // predecessors, so the applied prefix still seals; its error wins.
    Status sealed = Seal();
    if (!sealed.ok()) st = sealed;
  }
  if (applied != nullptr) {
    const size_t after = TotalOps() + PendingOps();
    *applied = after > before ? after - before : 0;
  }
  return st;
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
  if (approx_ != nullptr && !script.empty()) {
    // One glob record for the statement, in the same unit as its copies:
    // the seal stamps it with the tids they commit under.
    query::ApproxRecord rec;
    rec.op = provenance::ProvOp::kCopy;
    rec.loc = spec.dst;
    rec.src = spec.src;
    unit_.globs.push_back(std::move(rec));
  }
  CPDB_RETURN_IF_ERROR(ApplyScript(script));
  return script.size();
}

Status Editor::Commit() {
  // N/H sealed every unit before returning; T/HT seal the transaction.
  return PerOpStrategy() ? Status::OK() : Seal();
}

Status Editor::Abort() {
  if (PerOpStrategy()) {
    return Status::FailedPrecondition(
        "per-operation strategies auto-commit; nothing to abort");
  }
  return Unwind(Status::OK());
}

}  // namespace cpdb
