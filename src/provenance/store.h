#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "provenance/backend.h"
#include "provenance/prov_record.h"
#include "update/semantics.h"
#include "util/status.h"

namespace cpdb::provenance {

/// The four provenance storage strategies evaluated by the paper
/// (Sections 2.1.1-2.1.4 / 3.2.1-3.2.4).
enum class Strategy {
  kNaive,                      ///< N: one record per touched node, per-op txns
  kTransactional,              ///< T: net effect of user-delimited txns
  kHierarchical,               ///< H: only non-inferable records, per-op txns
  kHierarchicalTransactional,  ///< HT: both
};

const char* StrategyName(Strategy s);       // "naive", ...
const char* StrategyShortName(Strategy s);  // "N", "H", "T", "HT"

/// External transaction-number source. A store with an allocator set
/// draws every committed tid from it instead of its own sequential
/// counter — the service layer's engine-wide monotonic allocation, which
/// keeps concurrent sessions over one shared backend from minting the
/// same tid (each session's private counter would otherwise start from
/// the same MaxTid). Called only inside TrackBatch/Commit, i.e. on the
/// thread applying the transaction.
using TidAllocator = std::function<int64_t()>;

/// One tracked operation of a staged batch: the update's kind plus the
/// effect it had on the universe. The editor collects these while
/// applying a script, bulk copy or single update and hands the whole
/// sequence to ProvStore::TrackBatch.
struct TrackedOp {
  update::OpKind kind;
  update::ApplyEffect effect;
};

/// Abstract provenance store: the tracking call invoked by the
/// provenance-aware editor, transaction control, and the read interface
/// used by provenance queries.
///
/// Tracking contract: the editor applies updates to the target database,
/// obtains each one's ApplyEffect, and hands them to TrackBatch — a whole
/// script or bulk copy in one call, a single update outside a script as
/// a batch of one. TrackBatch is the only tracking call. For the
/// per-operation strategies (N, H) each operation is its own transaction;
/// Commit() is a no-op for them. For the transactional strategies (T, HT)
/// records accumulate in an in-memory provlist until Commit().
///
/// Group commit: N/H consume one tid per operation and produce per-op
/// records, but the whole batch reaches the backend in ONE WriteRecords
/// round trip (the paper's "reduced number of round-trips" win, applied
/// to the per-op strategies' scripts). A batch of one therefore costs
/// exactly what one per-op transaction costs. T/HT's provlist commit
/// already rides one flush per transaction; their TrackBatch only feeds
/// the provlist.
///
/// Transaction numbering: sequential tids double as version numbers of the
/// target database, so Trace's "t-1" step (Section 2.2) is tid arithmetic.
class ProvStore {
 public:
  explicit ProvStore(ProvBackend* backend, int64_t first_tid = 1)
      : backend_(backend), next_tid_(first_tid), last_tid_(first_tid - 1) {}
  virtual ~ProvStore() = default;

  virtual Strategy strategy() const = 0;

  // ----- Tracking (editor-facing) -----------------------------------------

  /// Tracks a staged batch of applied updates, in order. Each op's effect
  /// carries the touched nodes: `inserted` for an insert, `deleted` in
  /// preorder (root first) for a delete, and `copied` (target, source)
  /// pairs in preorder plus the displaced `overwritten` nodes for a copy.
  /// N/H commit each op under its own tid and flush the batch's records
  /// in one WriteRecords (plus H's per-insert existence probes, which
  /// stay individual round trips by design); a failure writes nothing to
  /// the backend. T/HT add the ops to the provlist, which flushes at
  /// Commit(). If `tids` is non-null it receives the tid each op
  /// committed under (0 for T/HT, whose tid is assigned at Commit).
  virtual Status TrackBatch(const std::vector<TrackedOp>& ops,
                            std::vector<int64_t>* tids = nullptr) = 0;

  /// Ends the current transaction. For N/H this is implicit per op and
  /// calling it explicitly is a harmless no-op.
  virtual Status Commit() = 0;

  /// Discards uncommitted provlist entries (editor abort).
  virtual void AbortPending() {}

  // ----- Read interface (query-facing) -------------------------------------
  //
  // Reads go through the backend's cursor/batch API: stream ranges with
  // backend()->ScanUnder / ScanAtLoc / ScanAtLocOrAncestors / ScanAll
  // (one round trip per batch fetched), and resolve point batches with
  // backend()->LookupMany. No read returns a whole result vector.

  /// Whether the store keeps hierarchical records (subtree roots only),
  /// so a node's provenance may come from its closest ancestor's record
  /// (Section 2.1.3). Queries then read the ancestor chain too
  /// (query::QueryEngine::NewestApplicable).
  virtual bool IsHierarchical() const { return false; }

  // ----- Stats / transaction counters --------------------------------------

  /// Tid of the last committed transaction (tnow for queries).
  int64_t LastCommittedTid() const { return last_tid_; }

  /// First tid ever used by this store.
  int64_t FirstTid() const { return first_tid_committed_; }

  size_t RecordCount() const { return backend_->RowCount(); }
  size_t PhysicalBytes() const { return backend_->PhysicalBytes(); }
  ProvBackend* backend() { return backend_; }

  /// Routes tid allocation through `alloc` (service sessions): the engine
  /// hands out the real number when the transaction applies.
  void set_tid_allocator(TidAllocator alloc) {
    tid_allocator_ = std::move(alloc);
  }

 protected:
  /// Allocates/advances the transaction counter.
  int64_t BumpTid() {
    int64_t tid = tid_allocator_ ? tid_allocator_() : next_tid_;
    next_tid_ = tid + 1;
    last_tid_ = tid;
    if (first_tid_committed_ == 0) first_tid_committed_ = tid;
    return tid;
  }

  /// Runs `seal`, which takes its tids with BumpTid, and hands them all
  /// back if it fails: the counters return to where they were, so the
  /// failed unit consumes no version number and the next one commits
  /// under the tid this one would have had. An allocator's tids stay
  /// taken (service sessions, where gaps are allowed).
  template <typename Seal>
  Status SealOrHandBackTids(Seal&& seal) {
    const int64_t next = next_tid_;
    const int64_t last = last_tid_;
    const int64_t first = first_tid_committed_;
    Status st = seal();
    if (!st.ok()) {
      next_tid_ = next;
      last_tid_ = last;
      first_tid_committed_ = first;
    }
    return st;
  }

  ProvBackend* backend_;
  int64_t next_tid_;
  int64_t last_tid_;
  int64_t first_tid_committed_ = 0;
  TidAllocator tid_allocator_;
};

/// Factory covering all four strategies.
std::unique_ptr<ProvStore> MakeStore(Strategy strategy, ProvBackend* backend,
                                     int64_t first_tid = 1);

}  // namespace cpdb::provenance
