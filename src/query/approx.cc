#include "query/approx.h"

namespace cpdb::query {

const char* MayAnswerName(MayAnswer a) {
  switch (a) {
    case MayAnswer::kNo:
      return "no";
    case MayAnswer::kMaybe:
      return "maybe";
    case MayAnswer::kYes:
      return "yes";
  }
  return "?";
}

std::string ApproxRecord::ToString() const {
  std::string out = std::to_string(tid);
  if (last_tid > tid) out += "-" + std::to_string(last_tid);
  out += ' ';
  out += provenance::ProvOpChar(op);
  out += ' ';
  out += loc.ToString();
  out += ' ';
  out += op == provenance::ProvOp::kCopy ? src.ToString() : "⊥";
  return out;
}

std::vector<ApproxRecord> ApproxProvStore::MayAffect(
    const tree::Path& loc) const {
  std::vector<ApproxRecord> out;
  for (const ApproxRecord& r : records_) {
    if (r.loc.Matches(loc)) out.push_back(r);
  }
  return out;
}

MayAnswer ApproxProvStore::MayComeFrom(int64_t tid, const tree::Path& loc,
                                       const tree::Path& src) const {
  MayAnswer best = MayAnswer::kNo;
  for (const ApproxRecord& r : records_) {
    if (!r.CoversTid(tid) || r.op != provenance::ProvOp::kCopy) continue;
    // The loc and src globs bind their wildcards jointly: T/a/*/b from
    // S/a/*/b relates T/a/x/b only to S/a/x/b. Check binding consistency
    // when arities match; otherwise fall back to independent matching.
    auto loc_bind = r.loc.Capture(loc);
    auto src_bind = r.src.Capture(src);
    if (!loc_bind.has_value() || !src_bind.has_value()) continue;
    bool consistent = loc_bind->size() != src_bind->size() ||
                      *loc_bind == *src_bind;
    if (!consistent) continue;
    if (!r.loc.HasWildcards() && !r.src.HasWildcards()) {
      return MayAnswer::kYes;
    }
    best = MayAnswer::kMaybe;
  }
  return best;
}

MayAnswer ApproxProvStore::MayComeFromAnywhere(
    const tree::Path& loc, const tree::PathGlob& src_glob) const {
  MayAnswer best = MayAnswer::kNo;
  for (const ApproxRecord& r : records_) {
    if (r.op != provenance::ProvOp::kCopy) continue;
    if (!r.loc.Matches(loc)) continue;
    // Does r's source glob overlap src_glob? Conservative: subsumption in
    // either direction counts as overlap; otherwise skip.
    if (!r.src.SubsumedBy(src_glob) && !src_glob.SubsumedBy(r.src)) {
      continue;
    }
    if (!r.loc.HasWildcards() && !r.src.HasWildcards()) {
      return MayAnswer::kYes;
    }
    best = MayAnswer::kMaybe;
  }
  return best;
}

size_t ApproxProvStore::ApproxBytes() const {
  size_t n = 0;
  for (const ApproxRecord& r : records_) {
    n += r.loc.ToString().size() + r.src.ToString().size() + 16;
  }
  return n;
}

}  // namespace cpdb::query
