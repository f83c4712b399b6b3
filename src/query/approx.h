#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "provenance/prov_record.h"
#include "tree/glob.h"

namespace cpdb::query {

/// Three-valued answer of an approximate provenance query: with glob
/// records we "can only say that some data may (or cannot) have come from
/// a given source location" (paper Section 6).
enum class MayAnswer {
  kNo,     ///< no approximate record could cover the pair
  kMaybe,  ///< covered by a wildcard record
  kYes,    ///< covered by an exact (wildcard-free) record
};

const char* MayAnswerName(MayAnswer a);

/// One approximate provenance record, e.g.
/// Prov(t, C, T/a/*/b, S/a/*/b): transaction t may have copied data from
/// source paths matching the src glob to target paths matching loc.
///
/// A bulk statement spans the tids [tid, last_tid]: under N/H each of its
/// atomic copies commits as its own transaction, while under T/HT the
/// whole bulk is one transaction and last_tid equals tid. A last_tid
/// below tid means the record covers tid alone.
struct ApproxRecord {
  int64_t tid = 0;
  int64_t last_tid = 0;
  provenance::ProvOp op = provenance::ProvOp::kCopy;
  tree::PathGlob loc;
  tree::PathGlob src;

  bool CoversTid(int64_t t) const {
    return t >= tid && t <= std::max(tid, last_tid);
  }

  std::string ToString() const;
};

/// Store for approximate provenance of bulk updates (Section 6).
///
/// A bulk update touching thousands of locations stores one glob record
/// whose size is proportional to the *statement*, not the data touched;
/// queries over it are sound but incomplete (may/may-not semantics).
class ApproxProvStore {
 public:
  void Track(ApproxRecord record) { records_.push_back(std::move(record)); }

  /// Records that may describe a change at `loc` (any transaction).
  std::vector<ApproxRecord> MayAffect(const tree::Path& loc) const;

  /// Could the data at `loc` have come from `src` in transaction `tid`?
  /// Only records whose tid range covers `tid` can answer yes or maybe.
  MayAnswer MayComeFrom(int64_t tid, const tree::Path& loc,
                        const tree::Path& src) const;

  /// Could *any* transaction have put data at `loc` from somewhere
  /// matching `src_glob`?
  MayAnswer MayComeFromAnywhere(const tree::Path& loc,
                                const tree::PathGlob& src_glob) const;

  size_t RecordCount() const { return records_.size(); }

  /// Approximate storage footprint (bytes of glob text), to contrast with
  /// full provenance storage in the bulk-update ablation bench.
  size_t ApproxBytes() const;

 private:
  std::vector<ApproxRecord> records_;
};

}  // namespace cpdb::query
