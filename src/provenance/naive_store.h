#pragma once

#include "provenance/store.h"

namespace cpdb::provenance {

/// Naive provenance (Section 2.1.1 / 3.2.1): one provenance record for
/// every node inserted, deleted, or copied, and each update operation is
/// its own transaction. Retains the maximum possible information — the
/// exact update script can be recovered from the store — at the highest
/// storage cost (proportional to the data touched).
class NaiveStore : public ProvStore {
 public:
  using ProvStore::ProvStore;

  Strategy strategy() const override { return Strategy::kNaive; }

  /// One tid and one record per touched node for every op; the whole
  /// batch reaches the backend in one WriteRecords round trip. A failed
  /// batch writes nothing.
  Status TrackBatch(const std::vector<TrackedOp>& ops,
                    std::vector<int64_t>* tids = nullptr) override;

  /// Per-operation transactions: nothing is pending, so Commit is a no-op.
  Status Commit() override { return Status::OK(); }

 private:
  /// Appends one op's records (one per touched node) under `tid`.
  static Status AppendRecords(int64_t tid, update::OpKind kind,
                              const update::ApplyEffect& effect,
                              std::vector<ProvRecord>* out);
};

}  // namespace cpdb::provenance
