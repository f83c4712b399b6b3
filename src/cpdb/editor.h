#pragma once

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
///
/// Every strategy writes through one staged unit: updates are staged into
/// it, and the unit either seals — one checked native replay, one
/// provenance flush, one native write, one durability barrier — or
/// unwinds as a whole. N/H seal the unit before each update, script or
/// bulk copy returns; T/HT seal it at Commit(). A native replay the
/// target refuses, or a provenance write that fails, unwinds the whole
/// unit before anything is written, so the universe, the provenance store
/// and the native target never disagree about what committed.
class Editor {
 public:
  /// Builds a session around a target database and a provenance backend.
  static Result<std::unique_ptr<Editor>> Create(
      wrap::TargetDb* target, provenance::ProvBackend* backend,
      EditorOptions options = {});

  /// Service-layer variant: mounts the supplied committed snapshot of the
  /// target instead of calling target->TreeFromDb(). The session pool
  /// passes a clone of the snapshot it took at the committed watermark —
  /// O(1) by copy-on-write structural sharing — so sessions built at one
  /// watermark share one read of the target database.
  static Result<std::unique_ptr<Editor>> CreateWithSnapshot(
      wrap::TargetDb* target, provenance::ProvBackend* backend,
      tree::Tree target_snapshot, EditorOptions options);

  /// Swaps the universe's target subtree for a newer committed snapshot
  /// — the O(1) refresh behind SessionPool reuse (no editor rebuild).
  /// Only legal between transactions; fails with FailedPrecondition when
  /// anything is staged.
  Status ResetTargetSnapshot(tree::Tree snapshot);

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
  /// N/H the update commits at once as a unit of one; under T/HT it joins
  /// the open transaction.
  Status ApplyUpdate(const update::Update& u);

  /// Applies a whole script; stops at the first failure and returns the
  /// number of operations applied via `applied`.
  ///
  /// Batched write path: for the per-operation strategies (N, H) the
  /// script is one unit, sealed as one group commit — one TrackBatch (a
  /// single WriteRecords round trip; H's per-insert probes excepted) and
  /// one native write (a single round trip) — while per-op semantics (one
  /// tid per op, identical records) are preserved; an archived session
  /// records the script's versions as one run. An op that fails to stage
  /// ends the script and the applied prefix seals, matching the per-op
  /// contract. For T/HT the ops join the open transaction and seal at
  /// Commit(). A native replay the target refuses, or a failed provenance
  /// write, unwinds the whole unit and reports 0 applied; a native write
  /// failure after the provenance committed reports its error with the
  /// committed ops applied.
  Status ApplyScript(const update::Script& script, size_t* applied = nullptr);

  /// Parses and applies a script in the paper's concrete syntax
  /// (batched like ApplyScript).
  Status ApplyScriptText(const std::string& text);

  /// Expands and applies a bulk copy (batched like ApplyScript). With
  /// the approximate store enabled, a non-empty bulk stages one glob
  /// record, which the seal stamps with the tids its unit committed
  /// under (each copy's for N/H, the transaction's for T/HT) and an
  /// unwind discards. Returns the number of atomic copies performed.
  Result<size_t> BulkCopy(const update::BulkCopySpec& spec);

  /// Seals the open transaction (T/HT): its provenance flushes in one
  /// WriteRecords and its native target writes in one checked native
  /// write, whatever its length. If the target refuses the replay or the
  /// provenance write fails, the transaction unwinds as Abort() would and
  /// the error is returned. A harmless no-op for N/H, which seal every
  /// unit at once.
  Status Commit();

  /// Reverts all uncommitted operations (universe + provlist + staged
  /// glob records) atomically: nothing of the discarded transaction is
  /// observable in the target database or the provenance store
  /// afterwards (a staged unit touches neither before its seal). Fails
  /// for per-operation strategies, which have nothing pending.
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

  /// Number of operations staged and not yet sealed: the open T/HT
  /// transaction's length, and always 0 for N/H between calls. Zero means
  /// nothing at all is staged.
  size_t PendingOps() const { return unit_.script.size(); }

  /// Operations committed across the session.
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

  /// Stages `u` into the unit: validates it, applies it to the universe
  /// under the undo log, and keeps its effect and op-time paste payload
  /// for the seal. T/HT add it to the open transaction's provlist at once,
  /// as a one-op TrackBatch. A rejected update stages nothing; a tracking
  /// failure unwinds the whole unit.
  Status Stage(const update::Update& u);

  /// Commits the staged unit. The target first checks the unit's native
  /// replay (TargetDb::Prepare); then N/H track it in one TrackBatch (one
  /// tid per op) and T/HT commit the provlist under the transaction's one
  /// tid. If either refuses, nothing was written and the unit unwinds.
  /// Otherwise the unit is committed and never unwound: its checked
  /// native write runs, an archived session records one version per tid,
  /// TxnMeta (when enabled) gets one row per tid, and the unit's glob
  /// records are stamped with its [first, last] tid.
  /// The durability barrier then ALWAYS runs — even when that tail fails,
  /// because the unit is committed in the provenance store and must seal
  /// into its own log record, not fuse into a later unit's. The tail's
  /// error wins over the barrier's. An empty N/H unit commits nothing.
  Status Seal();

  /// Discards the staged unit: drops the provlist, reverts the universe
  /// and clears the unit. Returns `cause` unless the revert fails.
  Status Unwind(Status cause);

  /// Builds the unit's native replay: paths rebased onto the target's
  /// root, paste payloads borrowed from the unit.
  Result<std::vector<wrap::NativeOp>> BuildNativeOps() const;

  /// Durability barrier closing one committed unit: ONE group commit
  /// (log append + fsync) on the provenance store's database and one on
  /// the target. Both are no-ops for in-memory stores, so the default
  /// sessions are untouched; when target and provenance share a durable
  /// Database the first Sync covers both and the second is free.
  Status SyncDurable();

  EditorOptions options_;
  wrap::TargetDb* target_;
  tree::Path target_root_;
  tree::Tree universe_;
  std::map<std::string, wrap::SourceDb*> sources_;

  std::unique_ptr<provenance::ProvStore> store_;
  std::unique_ptr<query::QueryEngine> query_;
  std::unique_ptr<archive::VersionArchive> archive_;
  std::unique_ptr<query::ApproxProvStore> approx_;

  /// Reverts the staged unit's updates; emptied when the unit seals.
  update::UndoLog undo_;

  /// The staged unit: every op applied since the last seal or unwind, and
  /// what its seal needs. Its vectors are cleared, not freed, between
  /// units, so a unit of one reuses their buffers.
  struct Unit {
    /// Effects awaiting TrackBatch: the whole unit for N/H, only the op
    /// being staged for T/HT.
    std::vector<provenance::TrackedOp> ops;
    update::Script script;
    /// Op-time snapshots of pasted subtrees, parallel to `script`
    /// (nullopt for non-copies): the native replay must paste what the
    /// op pasted, not the unit's end state.
    std::vector<std::optional<tree::Tree>> pasted;
    /// Bulk copies' glob records, stamped with the unit's tids at seal.
    std::vector<query::ApproxRecord> globs;
    /// The tids the unit committed under (one per op for N/H, the
    /// transaction's for T/HT); filled by the seal.
    std::vector<int64_t> tids;

    void Clear() {
      ops.clear();
      script.clear();
      pasted.clear();
      globs.clear();
      tids.clear();
    }
  };
  Unit unit_;

  size_t total_ops_ = 0;
  bool started_ = false;
};

}  // namespace cpdb
