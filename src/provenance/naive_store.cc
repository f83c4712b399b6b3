#include "provenance/naive_store.h"

namespace cpdb::provenance {

Status NaiveStore::AppendRecords(int64_t tid, update::OpKind kind,
                                 const update::ApplyEffect& effect,
                                 std::vector<ProvRecord>* out) {
  switch (kind) {
    case update::OpKind::kInsert:
      for (const tree::Path& p : effect.inserted) {
        out->push_back(ProvRecord::Insert(tid, p));
      }
      return Status::OK();
    case update::OpKind::kDelete:
      for (const tree::Path& p : effect.deleted) {
        out->push_back(ProvRecord::Delete(tid, p));
      }
      return Status::OK();
    case update::OpKind::kCopy:
      for (const auto& [loc, src] : effect.copied) {
        out->push_back(ProvRecord::Copy(tid, loc, src));
      }
      return Status::OK();
  }
  return Status::Internal("unknown update kind");
}

Status NaiveStore::TrackBatch(const std::vector<TrackedOp>& ops,
                              std::vector<int64_t>* tids) {
  if (ops.empty()) return Status::OK();
  return SealOrHandBackTids([&]() -> Status {
    std::vector<ProvRecord> records;
    for (const TrackedOp& op : ops) {
      int64_t tid = BumpTid();  // each op is still its own transaction
      CPDB_RETURN_IF_ERROR(AppendRecords(tid, op.kind, op.effect, &records));
      if (tids != nullptr) tids->push_back(tid);
    }
    return backend_->WriteRecords(records);
  });
}

}  // namespace cpdb::provenance
