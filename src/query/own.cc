#include "query/own.h"

namespace cpdb::query {

void OwnRegistry::Register(const std::string& root_label,
                           QueryEngine* engine) {
  engines_[root_label] = engine;
}

bool OwnRegistry::Has(const std::string& root_label) const {
  return engines_.count(root_label) > 0;
}

Result<std::vector<OwnLink>> OwnRegistry::OwnChain(const tree::Path& p) {
  std::vector<OwnLink> chain;
  last_truncated_ = false;
  tree::Path cur = p;
  // Bound the walk defensively: a provenance cycle across stores would
  // otherwise loop (possible only with inconsistent stores).
  for (size_t hops = 0; hops <= engines_.size() + 1; ++hops) {
    if (cur.IsRoot()) {
      last_truncated_ = true;
      return chain;
    }
    const std::string db = cur.At(0);
    auto it = engines_.find(db);
    if (it == engines_.end()) {
      // Data came from a database that does not track/publish provenance;
      // the paper: "many queries only have incomplete answers".
      OwnLink link;
      link.database = db;
      link.path = cur;
      chain.push_back(std::move(link));
      last_truncated_ = true;
      return chain;
    }
    QueryEngine* engine = it->second;
    // The trace consumes streaming cursors underneath; bracket it with
    // cost snapshots so every link reports what its hops cost.
    const relstore::CostModel& cost =
        engine->store()->backend()->db()->cost();
    relstore::CostSnapshot before = cost.Snap();
    CPDB_ASSIGN_OR_RETURN(TraceResult trace, engine->TraceBack(cur));
    OwnLink link;
    link.database = db;
    link.path = cur;
    link.origin_tid = trace.origin_tid;
    link.round_trips = cost.Snap().calls - before.calls;
    for (const TraceStep& s : trace.steps) {
      if (s.op == provenance::ProvOp::kCopy) link.copy_tids.push_back(s.tid);
    }
    chain.push_back(std::move(link));
    if (!trace.external_src.has_value()) {
      return chain;  // origin found (or trail went cold) inside this db
    }
    cur = *trace.external_src;
  }
  last_truncated_ = true;
  return chain;
}

}  // namespace cpdb::query
