// Figure 13: time to answer the getSrc, getMod, and getHist provenance
// queries at the end of a 14,000-real run, for each storage method, on
// random locations. As in the paper, the provenance relation is queried
// WITHOUT indexes ("these query times represent worst-case behavior"):
// every store query is charged as a full table scan, so smaller tables
// answer faster.
//
// Expected shape (paper Section 4.2): getHist <= getSrc <= getMod; T
// ~2.5x faster than N across queries; H slightly faster than N for
// getSrc/getHist but ~20% slower for getMod (one extra ancestor probe
// per level); HT matches T on getSrc/getHist, and only modestly beats N
// on getMod.

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "harness.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace cpdb;
  using namespace cpdb::bench;
  Flags flags(argc, argv);
  RunConfig base;
  base.steps = static_cast<size_t>(flags.GetInt("steps", 14000));
  base.txn_len = static_cast<size_t>(flags.GetInt("txn-len", 5));
  base.pattern = workload::Pattern::kReal;
  base.target_entries = 3000;
  base.source_entries = 6000;
  base.use_indexes = flags.GetBool("use-indexes", false);
  size_t n_queries = static_cast<size_t>(flags.GetInt("queries", 50));

  JsonReport report("fig13_querytime");
  report.config()
      .Set("steps", base.steps)
      .Set("txn_len", base.txn_len)
      .Set("pattern", "real")
      .Set("queries", n_queries)
      .Set("use_indexes", base.use_indexes);

  PrintHeader("Figure 13", "provenance query time after 14000-real (ms)");
  std::printf("steps=%zu queries=%zu indexes=%s\n\n", base.steps, n_queries,
              base.use_indexes ? "on" : "off (paper's worst case)");

  std::printf("%-8s %12s %12s %12s %10s | %9s %12s\n", "method", "getSrc",
              "getMod", "getHist", "rows", "mod-RTs", "mod-RTs(old)");
  for (auto strat : kAllStrategies) {
    RunConfig cfg = base;
    cfg.strategy = strat;
    RunStats st = RunWorkload(cfg);

    // Random probe locations from the final target tree.
    Rng rng(7);
    std::vector<tree::Path> locs;
    const tree::Tree* target = st.editor->TargetView();
    std::vector<tree::Path> all;
    target->Visit([&](const tree::Path& rel, const tree::Tree&) {
      if (!rel.IsRoot()) all.push_back(tree::Path({std::string("T")}).Concat(rel));
    });
    for (size_t i = 0; i < n_queries && !all.empty(); ++i) {
      locs.push_back(all[rng.NextIndex(all.size())]);
    }

    // Returns {avg ms per query, avg round trips per query}.
    auto measure = [&](auto&& fn) {
      relstore::CostSnapshot before = st.prov_db->cost().Snap();
      for (const tree::Path& p : locs) fn(p);
      relstore::CostSnapshot after = st.prov_db->cost().Snap();
      double n = static_cast<double>(locs.size());
      return std::pair<double, double>(
          (after.micros - before.micros) / 1000.0 / n,
          static_cast<double>(after.calls - before.calls) / n);
    };
    query::QueryEngine* q = st.editor->query();
    auto [src_ms, src_rt] = measure([&](const tree::Path& p) {
      (void)q->GetSrc(p);
    });
    auto [mod_ms, mod_rt] = measure([&](const tree::Path& p) {
      (void)q->GetMod(p);
    });
    auto [hist_ms, hist_rt] = measure([&](const tree::Path& p) {
      (void)q->GetHist(p);
    });

    // What the pre-redesign (per-descendant) read path would have paid
    // for the same getMod workload: one subtree scan, one per-location
    // scan per distinct location found under p, and (hierarchical) one
    // point query per ancestor level — O(n) round trips where the cursor
    // path issues O(depth + 1).
    provenance::ProvBackend* backend = st.editor->store()->backend();
    bool hierarchical = st.editor->store()->IsHierarchical();
    double legacy_mod_rt = 0;
    for (const tree::Path& p : locs) {
      std::set<std::string> distinct;
      provenance::ProvCursor under = backend->ScanUnder(p);
      provenance::ProvRecord rec;
      while (under.Next(&rec)) distinct.insert(rec.loc.ToString());
      size_t trips = 1 + distinct.size();
      if (hierarchical) {
        for (tree::Path a = p; a.Depth() > 2; a = a.Parent()) ++trips;
      }
      legacy_mod_rt += static_cast<double>(trips);
    }
    legacy_mod_rt /= static_cast<double>(locs.size());

    std::printf("%-8s %12.3f %12.3f %12.3f %10zu | %9.1f %12.1f\n",
                provenance::StrategyShortName(strat), src_ms, mod_ms,
                hist_ms, st.prov_rows, mod_rt, legacy_mod_rt);
    report.AddRow()
        .Set("method", provenance::StrategyShortName(strat))
        .Set("ops", st.applied)
        .Set("getsrc_ms", src_ms)
        .Set("getmod_ms", mod_ms)
        .Set("gethist_ms", hist_ms)
        .Set("getsrc_round_trips", src_rt)
        .Set("getmod_round_trips", mod_rt)
        .Set("getmod_round_trips_legacy", legacy_mod_rt)
        .Set("gethist_round_trips", hist_rt)
        .Set("prov_rows", st.prov_rows)
        .Set("prov_bytes", st.prov_bytes)
        .Set("workload_round_trips", st.prov_round_trips)
        .Set("real_ms", st.real_ms);
  }
  std::printf(
      "\nShape check vs paper: T fastest (~2.5x over N, its table is\n"
      "~25-35%% of N's); H beats N on getSrc/getHist but loses on getMod;\n"
      "HT == T on getSrc/getHist. mod-RTs is the measured getMod\n"
      "round-trip count on the cursor read path; mod-RTs(old) is what the\n"
      "pre-redesign per-descendant path would have issued for the same\n"
      "workload (lower is better; the gap is the redesign's win).\n");
  report.WriteTo(flags.GetString("json", ""));
  return 0;
}
