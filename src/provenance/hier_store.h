#pragma once

#include "provenance/store.h"

namespace cpdb::provenance {

/// Hierarchical provenance (Section 2.1.3 / 3.2.3): stores at most one
/// record per operation — the link for the *root* of the affected subtree.
/// Children's provenance is inferred from the closest ancestor's record
/// by the recursive view of Section 2.1.3, which queries apply on the fly
/// (query::QueryEngine::NewestApplicable). Each operation is its own
/// transaction.
///
/// Faithful to the paper's observed costs, inserts perform an existence
/// probe against the provenance store before writing ("we must first
/// query the provenance database to determine whether to add the
/// provenance record"), making hierarchical inserts slower than naive
/// ones while copies are much cheaper (Figure 10).
class HierStore : public ProvStore {
 public:
  using ProvStore::ProvStore;

  Strategy strategy() const override { return Strategy::kHierarchical; }

  /// One tid and at most one record for every op — including the
  /// per-insert existence probe, which remains one real provenance-store
  /// round trip per insert (the Figure 10 cost) — while all surviving
  /// records flush in one WriteRecords round trip.
  Status TrackBatch(const std::vector<TrackedOp>& ops,
                    std::vector<int64_t>* tids = nullptr) override;

  Status Commit() override { return Status::OK(); }

  bool IsHierarchical() const override { return true; }

 private:
  /// Rejects malformed effects (empty touched-node lists) — checked
  /// before any tid is consumed, so a rejected call never advances the
  /// version sequence.
  static Status CheckEffect(update::OpKind kind,
                            const update::ApplyEffect& effect);

  /// Builds op's (at most one) record under `tid`, probing the backend
  /// for insert inferability; appends nothing when inferable. The effect
  /// must have passed CheckEffect.
  Status AppendRecord(int64_t tid, update::OpKind kind,
                      const update::ApplyEffect& effect,
                      std::vector<ProvRecord>* out);
};

}  // namespace cpdb::provenance
