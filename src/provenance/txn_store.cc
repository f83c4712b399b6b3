#include "provenance/txn_store.h"

namespace cpdb::provenance {

void TxnStore::PruneUnder(const tree::Path& root) {
  // Paths ordered lexicographically by label sequence keep a subtree
  // contiguous: erase the range [root, first non-descendant).
  auto it = provlist_.lower_bound(root);
  while (it != provlist_.end() && root.IsPrefixOf(it->first)) {
    it = provlist_.erase(it);
  }
}

bool TxnStore::InsertInferable(const tree::Path& p) const {
  // Walk ancestors from the parent upward; the first provlist entry found
  // is the closest-ancestor record that inference would use.
  tree::Path a = p;
  while (!a.IsRoot()) {
    a = a.Parent();
    auto it = provlist_.find(a);
    if (it != provlist_.end()) {
      return it->second.op == ProvOp::kInsert;
    }
  }
  return false;
}

Status TxnStore::AddInsert(const update::ApplyEffect& effect) {
  if (effect.inserted.empty()) {
    return Status::InvalidArgument("insert effect with no inserted node");
  }
  ChargeLocal();
  const tree::Path& p = effect.inserted.front();
  // Net-effect bookkeeping: re-inserting a path deleted earlier in this
  // transaction replaces its D entry (content replaced, recorded as I).
  provlist_.erase(p);
  if (removed_.count(p) > 0) {
    removed_.erase(p);
  } else {
    created_.insert(p);
  }
  if (options_.hierarchical && InsertInferable(p)) {
    return Status::OK();  // child of a node inserted this txn: inferable
  }
  provlist_.emplace(p, ProvRecord::Insert(0, p));
  return Status::OK();
}

Status TxnStore::AddDelete(const update::ApplyEffect& effect) {
  if (effect.deleted.empty()) {
    return Status::InvalidArgument("delete effect with no deleted nodes");
  }
  ChargeLocal();
  const tree::Path& root = effect.deleted.front();
  bool root_existed_at_start = !CreatedThisTxn(root);
  // Remove links of the data being deleted (temporary data vanishes).
  PruneUnder(root);
  for (const tree::Path& d : effect.deleted) {
    bool existed_at_start = !CreatedThisTxn(d);
    created_.erase(d);
    if (!existed_at_start) continue;
    removed_.insert(d);
    if (options_.hierarchical) continue;  // root record covers descendants
    provlist_.emplace(d, ProvRecord::Delete(0, d));
  }
  if (options_.hierarchical && root_existed_at_start) {
    provlist_.emplace(root, ProvRecord::Delete(0, root));
  }
  return Status::OK();
}

Status TxnStore::AddCopy(const update::ApplyEffect& effect) {
  if (effect.copied.empty()) {
    return Status::InvalidArgument("copy effect with no copied nodes");
  }
  ChargeLocal();
  const tree::Path& root = effect.copied.front().first;
  // The copy wholesale-replaces the subtree at the destination: links of
  // overwritten data are removed (paper Section 3.2.2), and no D records
  // are produced for overwrites (consistent with naive semantics).
  PruneUnder(root);
  std::set<tree::Path> overwritten(effect.overwritten.begin(),
                                   effect.overwritten.end());
  std::set<tree::Path> copied_targets;
  for (const auto& [loc, src] : effect.copied) {
    (void)src;
    copied_targets.insert(loc);
  }
  // Overwritten nodes that are not re-established by the copy are gone;
  // the copy record at the root fully describes the new subtree, so they
  // need no records of their own.
  for (const tree::Path& o : effect.overwritten) {
    if (copied_targets.count(o) > 0) continue;
    created_.erase(o);
    removed_.erase(o);
  }
  for (const auto& [loc, src] : effect.copied) {
    bool existed_at_start =
        removed_.count(loc) > 0 ||
        (overwritten.count(loc) > 0 && created_.count(loc) == 0);
    removed_.erase(loc);
    if (!existed_at_start) created_.insert(loc);
    if (options_.hierarchical && loc != root) continue;
    provlist_.emplace(loc, ProvRecord::Copy(0, loc, src));
  }
  return Status::OK();
}

Status TxnStore::TrackBatch(const std::vector<TrackedOp>& ops,
                            std::vector<int64_t>* tids) {
  for (const TrackedOp& op : ops) {
    switch (op.kind) {
      case update::OpKind::kInsert:
        CPDB_RETURN_IF_ERROR(AddInsert(op.effect));
        break;
      case update::OpKind::kDelete:
        CPDB_RETURN_IF_ERROR(AddDelete(op.effect));
        break;
      case update::OpKind::kCopy:
        CPDB_RETURN_IF_ERROR(AddCopy(op.effect));
        break;
    }
    if (tids != nullptr) tids->push_back(0);
  }
  return Status::OK();
}

Status TxnStore::Commit() {
  return SealOrHandBackTids([this] { return CommitAs(BumpTid()); });
}

Status TxnStore::CommitAs(int64_t tid) {
  if (provlist_.empty()) {
    created_.clear();
    removed_.clear();
    return Status::OK();
  }
  std::vector<ProvRecord> records;
  records.reserve(provlist_.size());
  for (auto& [loc, rec] : provlist_) {
    (void)loc;
    rec.tid = tid;
    records.push_back(rec);
  }
  if (options_.hierarchical && options_.dedupe_on_commit) {
    // Remove copy records inferable from the closest ancestor record in
    // the same commit: ancestor C at a with src s covers a descendant C
    // at p iff the descendant's src equals p rebased from a onto s.
    std::vector<ProvRecord> kept;
    for (const ProvRecord& r : records) {
      bool redundant = false;
      if (r.op == ProvOp::kCopy) {
        tree::Path a = r.loc;
        while (!a.IsRoot()) {
          a = a.Parent();
          auto it = provlist_.find(a);
          if (it == provlist_.end()) continue;
          redundant = it->second.op == ProvOp::kCopy &&
                      r.src == r.loc.Rebase(a, it->second.src);
          break;
        }
      }
      if (!redundant) kept.push_back(r);
    }
    records = std::move(kept);
  }
  CPDB_RETURN_IF_ERROR(backend_->WriteRecords(records));
  provlist_.clear();
  created_.clear();
  removed_.clear();
  return Status::OK();
}

void TxnStore::AbortPending() {
  provlist_.clear();
  created_.clear();
  removed_.clear();
}

}  // namespace cpdb::provenance
