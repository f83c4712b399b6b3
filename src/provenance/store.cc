#include "provenance/store.h"

#include "provenance/hier_store.h"
#include "provenance/naive_store.h"
#include "provenance/txn_store.h"

namespace cpdb::provenance {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kTransactional:
      return "transactional";
    case Strategy::kHierarchical:
      return "hierarchical";
    case Strategy::kHierarchicalTransactional:
      return "hierarchical-transactional";
  }
  return "?";
}

const char* StrategyShortName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "N";
    case Strategy::kTransactional:
      return "T";
    case Strategy::kHierarchical:
      return "H";
    case Strategy::kHierarchicalTransactional:
      return "HT";
  }
  return "?";
}

Result<std::optional<ProvRecord>> ProvStore::Lookup(int64_t tid,
                                                    const tree::Path& loc) {
  if (!IsHierarchical()) {
    CPDB_ASSIGN_OR_RETURN(auto exact, backend_->LookupMany(tid, {loc}));
    if (exact.empty()) return std::optional<ProvRecord>();
    return std::optional<ProvRecord>(exact.front());
  }

  // Closest-ancestor inference (Section 2.1.3): the deepest explicit
  // record on the ancestor chain in this transaction governs `loc`; nodes
  // between it and `loc` have none, so the Infer side-condition holds by
  // construction. The whole chain is resolved in ONE batched lookup —
  // "(Tid, Loc) IN (loc, parent(loc), ...)" — where the pre-cursor walk
  // paid one round trip per level.
  // The chain stops at depth 2: update targets sit strictly inside a
  // database, so a database root or the universe root can never be a
  // record's Loc (same cutoff as ScanAtLocOrAncestors).
  std::vector<tree::Path> chain;
  chain.push_back(loc);
  for (tree::Path a = loc; a.Depth() > 2;) {
    a = a.Parent();
    chain.push_back(a);
  }
  CPDB_ASSIGN_OR_RETURN(auto recs, backend_->LookupMany(tid, chain));
  const ProvRecord* best = nullptr;
  for (const ProvRecord& r : recs) {
    if (best == nullptr || best->loc.Depth() < r.loc.Depth()) best = &r;
  }
  if (best == nullptr) return std::optional<ProvRecord>();
  if (best->loc == loc) return std::optional<ProvRecord>(*best);
  switch (best->op) {
    case ProvOp::kCopy:
      // If p came from q, then p/x came from q/x.
      return std::optional<ProvRecord>(
          ProvRecord::Copy(tid, loc, loc.Rebase(best->loc, best->src)));
    case ProvOp::kInsert:
      // Children of inserted nodes are assumed inserted.
      return std::optional<ProvRecord>(ProvRecord::Insert(tid, loc));
    case ProvOp::kDelete:
      // Children of deleted nodes (in the input version) are deleted.
      return std::optional<ProvRecord>(ProvRecord::Delete(tid, loc));
  }
  return Status::Internal("unknown provenance op");
}

std::unique_ptr<ProvStore> MakeStore(Strategy strategy, ProvBackend* backend,
                                     int64_t first_tid) {
  switch (strategy) {
    case Strategy::kNaive:
      return std::make_unique<NaiveStore>(backend, first_tid);
    case Strategy::kHierarchical:
      return std::make_unique<HierStore>(backend, first_tid);
    case Strategy::kTransactional: {
      TxnStoreOptions opts;
      opts.hierarchical = false;
      return std::make_unique<TxnStore>(backend, opts, first_tid);
    }
    case Strategy::kHierarchicalTransactional: {
      TxnStoreOptions opts;
      opts.hierarchical = true;
      opts.local_op_us = 10.0;
      return std::make_unique<TxnStore>(backend, opts, first_tid);
    }
  }
  return nullptr;
}

}  // namespace cpdb::provenance
