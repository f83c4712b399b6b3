#pragma once

#include <functional>
#include <vector>

#include "provenance/prov_record.h"
#include "tree/tree.h"
#include "util/result.h"

namespace cpdb::provenance {

/// Callback giving the universe tree as of the *end* of transaction
/// `tid` (so `tid - 1` is the state the transaction started from).
/// Returns nullptr if the version is unknown.
using VersionFn = std::function<const tree::Tree*(int64_t tid)>;

/// Expands a hierarchical provenance table into the full provenance
/// table — the executable form of the paper's recursive view
/// (Section 2.1.3):
///
///   Prov(t,op,p,q)    <- HProv(t,op,p,q).
///   Prov(t,C,p/a,q/a) <- Prov(t,C,p,q), Infer(t,p/a).
///   Prov(t,I,p/a,bot) <- Prov(t,I,p,bot), Infer(t,p/a).
///   Prov(t,D,p/a,bot) <- Prov(t,D,p,bot), Infer(t,p/a).
///
/// (The paper prints the side condition as Infer(t,p); it must be
/// Infer(t,p/a) — the *derived child* must lack explicit provenance, or
/// explicit records at copied-into children would be shadowed. Figure
/// 5(c/d) confirms: 126 C T/c2/y overrides inference from 124 C T/c2.)
///
/// Insert/copy records expand over the children present at the end of
/// transaction t; delete records expand over the children in the input
/// version t-1. `versions` must therefore cover [t-1, t] for every tid in
/// `hier`.
///
/// The result is ordered by (tid, loc) and, for a store produced by
/// single-operation transactions, equals the naive store's table —
/// RandomWorkloadTest.HierarchicalExpandsToNaive (tests/property_test.cc)
/// checks exactly that.
Result<std::vector<ProvRecord>> ExpandToFull(
    const std::vector<ProvRecord>& hier, const VersionFn& versions);

/// Convenience: expands only the records of one transaction.
Result<std::vector<ProvRecord>> ExpandTxn(
    const std::vector<ProvRecord>& txn_records, const tree::Tree* post,
    const tree::Tree* pre);

}  // namespace cpdb::provenance
