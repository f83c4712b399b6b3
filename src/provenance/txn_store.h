#pragma once

#include <map>
#include <set>

#include "provenance/store.h"

namespace cpdb::provenance {

/// Options for the transactional strategies.
struct TxnStoreOptions {
  /// False = transactional (T): the provlist holds one record per touched
  /// node. True = hierarchical-transactional (HT): the provlist holds
  /// only non-inferable (root) records.
  bool hierarchical = false;

  /// HT only: remove redundant links (a copy record inferable from an
  /// ancestor copy in the same transaction) before committing. The paper
  /// implements but disables this by default: "such redundancy is
  /// unusual, so this extra processing appears not to be worthwhile in
  /// most cases" (Section 3.2.4). Exposed for the ablation benchmark.
  bool dedupe_on_commit = false;

  /// Simulated local (client-side) cost per tracked operation in
  /// microseconds, modelling provlist upkeep. Transactional ops are
  /// "essentially instantaneous"; HT ops pay a little more for the
  /// inferability checks (Section 4.2). Defaults follow those shapes.
  double local_op_us = 2.0;
};

/// Transactional provenance (Sections 2.1.2/2.1.4, 3.2.2/3.2.4).
///
/// Updates accumulate net-effect provenance links in an in-memory active
/// list (the paper's `provlist`); only links describing data present in
/// the transaction's output — plus deletions of data present in its
/// input — survive to Commit(), which writes them all in one round trip.
/// Temporary data created and destroyed within the transaction leaves no
/// trace, and {Tid, Loc} remains a key of the committed table.
///
/// TrackBatch only feeds the provlist (no backend traffic), whether the
/// editor hands it a whole script or a single op; the single WriteRecords
/// at Commit() is the group-commit flush the per-op strategies emulate
/// per batch.
///
/// With options.hierarchical, the provlist holds hierarchical records
/// (subtree roots only), and queries apply closest-ancestor inference.
class TxnStore : public ProvStore {
 public:
  TxnStore(ProvBackend* backend, TxnStoreOptions options,
           int64_t first_tid = 1)
      : ProvStore(backend, first_tid), options_(options) {}

  Strategy strategy() const override {
    return options_.hierarchical ? Strategy::kHierarchicalTransactional
                                 : Strategy::kTransactional;
  }

  /// Adds each op's net effect to the provlist, in order; reports tid 0
  /// per op (the transaction's tid is assigned at Commit).
  Status TrackBatch(const std::vector<TrackedOp>& ops,
                    std::vector<int64_t>* tids = nullptr) override;

  /// Writes the provlist in a single round trip and starts a new
  /// transaction. A transaction with no net changes still consumes a tid
  /// (the version sequence advances) but costs no round trip; a failed
  /// write hands its tid back.
  Status Commit() override;

  void AbortPending() override;

  bool IsHierarchical() const override { return options_.hierarchical; }

  /// Current provlist size (exposed for tests of pruning semantics).
  size_t PendingCount() const { return provlist_.size(); }

 private:
  /// Provlist upkeep for one op of each kind (see ProvStore::TrackBatch
  /// for what each effect carries).
  Status AddInsert(const update::ApplyEffect& effect);
  Status AddDelete(const update::ApplyEffect& effect);
  Status AddCopy(const update::ApplyEffect& effect);

  /// Commit's body: publishes the provlist under `tid`.
  Status CommitAs(int64_t tid);

  /// Removes provlist entries at or under `root`.
  void PruneUnder(const tree::Path& root);

  /// True if `p` did not exist at the start of the open transaction.
  /// (Nodes in `removed_` existed at start and are currently deleted;
  /// nodes in `created_` were created by this transaction.)
  bool CreatedThisTxn(const tree::Path& p) const {
    return created_.count(p) > 0;
  }

  /// HT: true if an insert record at `p` is inferable from the closest
  /// provlist ancestor (which must itself be an insert).
  bool InsertInferable(const tree::Path& p) const;

  void ChargeLocal() {
    backend_->cost_sink()->ChargeLocal(options_.local_op_us);
  }

  TxnStoreOptions options_;
  /// Active list, keyed by Loc ({Tid, Loc} key invariant by construction).
  std::map<tree::Path, ProvRecord> provlist_;
  /// Paths created since the transaction began (and still existing).
  std::set<tree::Path> created_;
  /// Paths that existed at transaction start and are currently deleted.
  std::set<tree::Path> removed_;
};

}  // namespace cpdb::provenance
