#include "provenance/hier_store.h"

namespace cpdb::provenance {

Status HierStore::CheckEffect(update::OpKind kind,
                              const update::ApplyEffect& effect) {
  switch (kind) {
    case update::OpKind::kInsert:
      if (effect.inserted.empty()) {
        return Status::InvalidArgument("insert effect with no inserted node");
      }
      return Status::OK();
    case update::OpKind::kDelete:
      if (effect.deleted.empty()) {
        return Status::InvalidArgument("delete effect with no deleted nodes");
      }
      return Status::OK();
    case update::OpKind::kCopy:
      if (effect.copied.empty()) {
        return Status::InvalidArgument("copy effect with no copied nodes");
      }
      return Status::OK();
  }
  return Status::Internal("unknown update kind");
}

Status HierStore::AppendRecord(int64_t tid, update::OpKind kind,
                               const update::ApplyEffect& effect,
                               std::vector<ProvRecord>* out) {
  switch (kind) {
    case update::OpKind::kInsert: {
      const tree::Path& p = effect.inserted.front();
      // Probe whether an ancestor record in this transaction would make
      // the new record inferable. With per-operation transactions the
      // probe never hits, but it is a real provenance-store round trip —
      // the cause of the hierarchical method's higher insert cost in
      // Figure 10. Deliberately kept as a single point lookup per insert
      // (not folded into the group commit) so that cost survives both the
      // cursor read redesign and the batched write path.
      if (!p.IsRoot()) {
        CPDB_ASSIGN_OR_RETURN(auto existing,
                              backend_->LookupMany(tid, {p.Parent()}));
        if (!existing.empty() && existing.front().op == ProvOp::kInsert) {
          return Status::OK();  // inferable from the parent's insert
        }
      }
      out->push_back(ProvRecord::Insert(tid, p));
      return Status::OK();
    }
    case update::OpKind::kDelete:
      // Only the subtree root is recorded; descendants (in the pre-state)
      // are inferred as deleted.
      out->push_back(ProvRecord::Delete(tid, effect.deleted.front()));
      return Status::OK();
    case update::OpKind::kCopy: {
      const auto& [loc, src] = effect.copied.front();
      out->push_back(ProvRecord::Copy(tid, loc, src));
      return Status::OK();
    }
  }
  return Status::Internal("unknown update kind");
}

Status HierStore::TrackBatch(const std::vector<TrackedOp>& ops,
                             std::vector<int64_t>* tids) {
  if (ops.empty()) return Status::OK();
  // Validate every effect before consuming any tid, so a malformed batch
  // neither advances the version sequence nor writes anything.
  for (const TrackedOp& op : ops) {
    CPDB_RETURN_IF_ERROR(CheckEffect(op.kind, op.effect));
  }
  return SealOrHandBackTids([&]() -> Status {
    std::vector<ProvRecord> records;
    records.reserve(ops.size());
    for (const TrackedOp& op : ops) {
      int64_t tid = BumpTid();  // each op is still its own transaction
      CPDB_RETURN_IF_ERROR(AppendRecord(tid, op.kind, op.effect, &records));
      if (tids != nullptr) tids->push_back(tid);
    }
    if (records.empty()) return Status::OK();
    return backend_->WriteRecords(records);
  });
}

}  // namespace cpdb::provenance
