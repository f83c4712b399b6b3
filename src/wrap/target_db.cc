#include "wrap/target_db.h"

namespace cpdb::wrap {

Status TreeTargetDb::ApplyOne(const update::Update& u,
                              const tree::Tree* copied_subtree,
                              size_t* rows) {
  switch (u.kind) {
    case update::OpKind::kInsert: {
      tree::Tree payload;
      if (u.value.has_value()) payload = tree::Tree(*u.value);
      CPDB_RETURN_IF_ERROR(
          content_.InsertAt(u.target, u.label, std::move(payload)));
      *rows = 1;
      return Status::OK();
    }
    case update::OpKind::kDelete: {
      CPDB_RETURN_IF_ERROR(content_.DeleteAt(u.target, u.label));
      *rows = 1;
      return Status::OK();
    }
    case update::OpKind::kCopy: {
      if (copied_subtree == nullptr) {
        return Status::InvalidArgument(
            "paste into the native store requires the copied subtree");
      }
      CPDB_RETURN_IF_ERROR(
          content_.ReplaceAt(u.target, copied_subtree->Clone()));
      *rows = copied_subtree->NodeCount();
      return Status::OK();
    }
  }
  return Status::Internal("unknown update kind");
}

Result<NativeWrite> TreeTargetDb::Prepare(const std::vector<NativeOp>& ops) {
  return NativeWrite([this, batch = &ops]() -> Status {
    size_t total_rows = 0;
    for (const NativeOp& op : *batch) {
      size_t rows = 0;
      CPDB_RETURN_IF_ERROR(ApplyOne(op.update, op.pasted, &rows));
      total_rows += rows;
    }
    if (!batch->empty()) {
      MutexLock l(cost_mu_);
      cost_.ChargeWrite(total_rows);
    }
    return Status::OK();
  });
}

}  // namespace cpdb::wrap
