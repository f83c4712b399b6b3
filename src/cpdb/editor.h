#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "provenance/store.h"
#include "query/approx.h"
#include "query/trace.h"
#include "tree/tree.h"
#include "update/bulk.h"
#include "update/semantics.h"
#include "update/update.h"
#include "util/result.h"
#include "wrap/source_db.h"
#include "wrap/target_db.h"

namespace cpdb {

/// Configuration of a curation session.
struct EditorOptions {
  provenance::Strategy strategy =
      provenance::Strategy::kHierarchicalTransactional;
  /// First transaction number (the paper's Figure 5 starts at 121).
  int64_t first_tid = 1;
  /// Record every committed version in a VersionArchive (Section 5's
  /// "both provenance recording and archiving are necessary").
  bool enable_archive = false;
  size_t archive_checkpoint_every = 64;
  /// Store TxnMeta rows (user, commit seq) per committed transaction.
  /// Off by default: the evaluation's round-trip accounting excludes it.
  bool record_txn_meta = false;
  /// Attach an approximate store that receives one glob record per bulk
  /// update (Section 6 extension).
  bool enable_approx = false;
  std::string user = "curator";

  // ----- Service-layer hooks (src/service/) --------------------------------
  // Standalone editors leave both untouched; multi-session engines set
  // them so N editors can share one backend safely.

  /// When set, every transaction number comes from this callback instead
  /// of the store's private sequential counter (service sessions draw
  /// from the engine's atomic allocator, so concurrent sessions never
  /// mint the same tid). `first_tid` then only seeds LastCommittedTid's
  /// pre-first-commit value and should be the engine's last allocated tid
  /// plus one.
  provenance::TidAllocator tid_allocator;

  /// When true the editor skips its own per-transaction durability
  /// barrier: SyncDurable becomes a no-op and the owner of the flag — the
  /// service layer's group commit — seals whole cohorts of transactions
  /// with ONE Database::Sync. Never set this for a standalone editor over
  /// a durable database: its commits would only reach the disk at
  /// Checkpoint/Close.
  bool defer_sync = false;
};

/// The provenance-aware editor/browser at the centre of the paper's
/// architecture (Figure 2): the ONLY write path to the curated target
/// database, guaranteeing that the target and its provenance record stay
/// consistent ("it is essential that the target database and provenance
/// record are writable only via high-level interfaces that track
/// provenance", Section 1.3).
///
/// The editor maintains the authoritative *universe* tree whose top-level
/// edges are the mounted databases ({S1: ..., S2: ..., T: ...}); updates
/// may only touch the target subtree, copies may read any mounted source.
/// Depending on the strategy, operations auto-commit (N, H) or accumulate
/// until Commit() (T, HT); native target writes follow the same boundary,
/// matching the paper's observation that transactional operations need
/// "no interaction with the target database or provenance store".
class Editor {
 public:
  /// Builds a session around a target database and a provenance backend.
  static Result<std::unique_ptr<Editor>> Create(
      wrap::TargetDb* target, provenance::ProvBackend* backend,
      EditorOptions options = {});

  /// Service-layer variant: mounts the supplied committed snapshot of the
  /// target instead of calling target->TreeFromDb(). The session pool
  /// passes a clone of a pinned SnapshotManager version — O(1) by
  /// copy-on-write structural sharing — so building a session never scans
  /// the target database.
  static Result<std::unique_ptr<Editor>> CreateWithSnapshot(
      wrap::TargetDb* target, provenance::ProvBackend* backend,
      tree::Tree target_snapshot, EditorOptions options);

  /// Swaps the universe's target subtree for a newer committed snapshot
  /// — the O(1) refresh behind SessionPool reuse (no rebuild, no scan).
  /// Only legal between transactions; fails with FailedPrecondition when
  /// anything is staged.
  Status ResetTargetSnapshot(tree::Tree snapshot);

  /// The staged transaction's writeset: target-relative roots of every
  /// subtree its commit-time native replay writes (for T/HT, the child
  /// maps its inserts/deletes/pastes mutate). The commit queue batches
  /// transactions with pairwise-disjoint writesets onto the apply pool.
  /// Empty when any op cannot be rebased (never parallelized).
  std::vector<tree::Path> StagedWriteClaims() const;

  /// Mounts a read-only source database; must precede the first update.
  Status MountSource(wrap::SourceDb* source);

  // ----- User actions ------------------------------------------------------

  /// ins {label : value} into at (empty payload when value is nullopt).
  Status Insert(const tree::Path& at, const std::string& label,
                std::optional<tree::Value> value = std::nullopt);

  /// del label from at.
  Status Delete(const tree::Path& at, const std::string& label);

  /// copy src into dst (src anywhere in the universe, dst under T).
  Status CopyPaste(const tree::Path& src, const tree::Path& dst);

  /// Applies any atomic update (validated like the specific verbs). Under
  /// N/H the update commits at once through the same group-commit flush
  /// as a script, as a batch of one.
  Status ApplyUpdate(const update::Update& u);

  /// Applies a whole script; stops at the first failure and returns the
  /// number of operations applied via `applied`.
  ///
  /// Batched write path: for the per-operation strategies (N, H) the
  /// script's effects are *staged* and flushed as one group commit — one
  /// TrackBatch (a single WriteRecords round trip; H's per-insert probes
  /// excepted) and one TargetDb::ApplyBatch (a single native round trip)
  /// — while per-op semantics (one tid per op, identical records) are
  /// preserved; an archived session records the script's versions as one
  /// run. A mid-script failure flushes the applied prefix, matching the
  /// per-op contract; a tracking failure in the flush itself unwinds the
  /// whole staged batch from the universe (nothing was written) and
  /// reports 0 applied, while a native-replay failure after a successful
  /// flush reports its error with `applied` ops committed. For T/HT the
  /// ops stage in the transaction as always and batch at Commit().
  Status ApplyScript(const update::Script& script, size_t* applied = nullptr);

  /// Parses and applies a script in the paper's concrete syntax
  /// (batched like ApplyScript).
  Status ApplyScriptText(const std::string& text);

  /// Expands and applies a bulk copy (batched like ApplyScript); records
  /// one approximate glob record if the approximate store is enabled.
  /// Returns the number of atomic copies performed.
  Result<size_t> BulkCopy(const update::BulkCopySpec& spec);

  /// Ends the current transaction (meaningful for T/HT; harmless no-op
  /// transaction boundary for N/H). A committed transaction's provenance
  /// flushes in one WriteRecords and its native target writes in one
  /// TargetDb::ApplyBatch call, whatever its length.
  Status Commit();

  /// Reverts all uncommitted operations (universe + provlist) atomically:
  /// nothing of the discarded transaction is observable in the target
  /// database or the provenance store afterwards (staged batches never
  /// touch either before their flush). Fails for per-operation
  /// strategies, which have nothing pending.
  Status Abort();

  // ----- Introspection ------------------------------------------------------

  const tree::Tree& universe() const { return universe_; }
  /// The target database's subtree, or nullptr before Create finishes.
  const tree::Tree* TargetView() const {
    return universe_.Find(target_root_);
  }
  const tree::Path& target_root() const { return target_root_; }

  provenance::ProvStore* store() { return store_.get(); }
  query::QueryEngine* query() { return query_.get(); }
  archive::VersionArchive* archive() { return archive_.get(); }
  query::ApproxProvStore* approx() { return approx_.get(); }
  wrap::TargetDb* target() { return target_; }

  /// Number of operations applied in the current (uncommitted) txn.
  size_t PendingOps() const { return txn_script_.size(); }

  /// Totals across the session.
  size_t TotalOps() const { return total_ops_; }

 private:
  Editor(wrap::TargetDb* target, EditorOptions options)
      : options_(std::move(options)), target_(target) {}

  bool PerOpStrategy() const {
    return options_.strategy == provenance::Strategy::kNaive ||
           options_.strategy == provenance::Strategy::kHierarchical;
  }

  /// Checks the target-only write restriction.
  Status ValidateUpdate(const update::Update& u) const;

  /// Appends the op-time paste payload for `u` to `out` (a clone of the
  /// current subtree at the destination for copies, nullopt otherwise).
  /// Must run right after the op is applied, while the universe still
  /// shows exactly what the op pasted.
  void StagePasted(const update::Update& u,
                   std::vector<std::optional<tree::Tree>>* out) const;

  /// Rebases `u` onto the target's root and attaches the paste payload
  /// (which must be the subtree as of the op's application, and outlive
  /// the returned value).
  Result<wrap::NativeOp> MakeNativeOp(const update::Update& u,
                                      const tree::Tree* pasted) const;

  /// Builds the native replay of a whole staged script (payloads borrowed
  /// from `pasted`, which must outlive the result).
  Result<std::vector<wrap::NativeOp>> BuildNativeOps(
      const update::Script& script,
      const std::vector<std::optional<tree::Tree>>& pasted) const;

  /// Durability barrier closing one committed transaction: ONE group
  /// commit (log append + fsync) on the provenance store's database and
  /// one on the target. Both are no-ops for in-memory stores, so the
  /// default sessions are untouched; when target and provenance share a
  /// durable Database the first Sync covers both and the second is free.
  Status SyncDurable();

  /// Runs the tail of an already-committed transaction (native replay,
  /// archive, meta), then ALWAYS runs the durability barrier — even when
  /// the tail fails, because the transaction is committed in the
  /// provenance store and must seal into its own log record, not fuse
  /// into a later transaction's. The tail's error wins; a sync failure
  /// surfaces only when the tail succeeded.
  Status FinishCommitted(const std::function<Status()>& tail);

  /// ApplyScript that also reports, via `tids`, the tid each N/H op
  /// committed under (left empty for T/HT, which commit at Commit()).
  Status ApplyStaged(const update::Script& script, size_t* applied,
                     std::vector<int64_t>* tids);

  /// Flushes the staged per-op-strategy batch — a whole script, or a
  /// single op outside one: one TrackBatch, one native ApplyBatch, one
  /// archive run. On a tracking failure the whole staged batch is unwound
  /// from the universe (nothing was written) and `flushed` is 0; once
  /// tracking succeeds the batch is committed (`flushed` = batch size,
  /// `tids` = the ops' tids) and a native-replay failure is reported
  /// without unwinding, like a failed commit replay. Resets the staging
  /// state.
  Status FlushBatch(size_t* flushed = nullptr,
                    std::vector<int64_t>* tids = nullptr);

  Status RecordMetaIfEnabled(int64_t tid, const std::string& note);

  EditorOptions options_;
  wrap::TargetDb* target_;
  tree::Path target_root_;
  tree::Tree universe_;
  std::map<std::string, wrap::SourceDb*> sources_;

  std::unique_ptr<provenance::ProvStore> store_;
  std::unique_ptr<query::QueryEngine> query_;
  std::unique_ptr<archive::VersionArchive> archive_;
  std::unique_ptr<query::ApproxProvStore> approx_;

  update::UndoLog undo_;
  update::Script txn_script_;
  /// Op-time snapshots of pasted subtrees, parallel to txn_script_
  /// (nullopt for non-copies). Needed because commit-time native replay
  /// must paste what the op pasted, not the end-of-transaction state.
  std::vector<std::optional<tree::Tree>> txn_pasted_;

  /// Staging for the per-op strategies (N, H): ApplyUpdate stages every
  /// op's tracking and native push into these, and FlushBatch ships them
  /// as one group commit — at once outside a script, at the script's end
  /// while `batching_` (inside ApplyScript/BulkCopy). T/HT stage each op
  /// in batch_ops_ only to hand it to TrackBatch at once. Always empty
  /// between calls.
  bool batching_ = false;
  std::vector<provenance::TrackedOp> batch_ops_;
  update::Script batch_script_;
  std::vector<std::optional<tree::Tree>> batch_pasted_;

  size_t total_ops_ = 0;
  bool started_ = false;
};

}  // namespace cpdb
