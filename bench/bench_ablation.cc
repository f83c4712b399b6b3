// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//  A. Provenance-store indexing: the paper measured queries without
//     indexes ("worst-case behavior"); how much do the {Tid,Loc}/Loc/Tid
//     indexes buy?
//  B. HT commit-time redundancy elimination (Section 3.2.4): the paper
//     judged it "not worthwhile"; measure rows saved vs commit cost on a
//     copy-within-copy workload engineered to create redundancy.
//  C. Bulk updates: full provenance rows vs one approximate glob record
//     (Section 6) as the bulk statement grows.

#include <cstdio>

#include "harness.h"
#include "provenance/txn_store.h"

using namespace cpdb;
using namespace cpdb::bench;

namespace {

void AblationIndexes(JsonReport* report) {
  std::printf("--- A. query cost: indexed vs unindexed provenance store ---\n");
  std::printf("%-8s %14s %14s %10s\n", "method", "getSrc(idx) ms",
              "getSrc(scan) ms", "speedup");
  for (auto strat : kAllStrategies) {
    double times[2];
    for (int use_idx = 0; use_idx < 2; ++use_idx) {
      RunConfig cfg;
      cfg.strategy = strat;
      cfg.pattern = workload::Pattern::kReal;
      cfg.steps = 4000;
      cfg.use_indexes = use_idx == 1;
      RunStats st = RunWorkload(cfg);
      const tree::Tree* target = st.editor->TargetView();
      std::vector<tree::Path> locs;
      target->Visit([&](const tree::Path& rel, const tree::Tree&) {
        if (!rel.IsRoot() && locs.size() < 40) {
          locs.push_back(tree::Path({std::string("T")}).Concat(rel));
        }
      });
      double before = st.prov_db->cost().ElapsedMicros();
      for (const auto& p : locs) (void)st.editor->query()->GetSrc(p);
      times[use_idx] = (st.prov_db->cost().ElapsedMicros() - before) /
                       1000.0 / static_cast<double>(locs.size());
    }
    std::printf("%-8s %14.3f %14.3f %9.1fx\n",
                provenance::StrategyShortName(strat), times[1], times[0],
                times[0] / (times[1] > 0 ? times[1] : 1));
    report->AddRow()
        .Set("section", "indexes")
        .Set("strategy", provenance::StrategyShortName(strat))
        .Set("getsrc_indexed_ms", times[1])
        .Set("getsrc_scan_ms", times[0]);
  }
  std::printf("\n");
}

void AblationDedupe(JsonReport* report) {
  std::printf("--- B. HT commit-time redundancy elimination ---\n");
  std::printf("(copy a whole entry, then re-copy one of its children from "
              "the same source: the child record is inferable)\n");
  for (bool dedupe : {false, true}) {
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    provenance::TxnStoreOptions topts;
    topts.hierarchical = true;
    topts.dedupe_on_commit = dedupe;
    provenance::TxnStore store(&backend, topts);

    tree::Tree universe;
    (void)universe.AddChild("S", workload::GenOrganelleLike(2000, 3));
    (void)universe.AddChild("T", tree::Tree());
    // Applies one copy to the universe and tracks it as a batch of one.
    auto apply_and_track = [&](const update::Update& u) {
      std::vector<provenance::TrackedOp> op(1);
      op[0].kind = update::OpKind::kCopy;
      (void)update::Apply(&universe, u, &op[0].effect);
      (void)store.TrackBatch(op);
    };
    Stopwatch wall;
    for (int i = 0; i < 2000; ++i) {
      std::string entry = "o" + std::to_string(1 + i % 2000);
      update::Update copy_all = update::Update::Copy(
          tree::Path::MustParse("S/" + entry),
          tree::Path::MustParse("T/c" + std::to_string(i)));
      apply_and_track(copy_all);
      // Redundant: re-copy the aligned child from the same source.
      update::Update copy_child = update::Update::Copy(
          tree::Path::MustParse("S/" + entry + "/protein"),
          tree::Path::MustParse("T/c" + std::to_string(i) + "/protein"));
      apply_and_track(copy_child);
      if (i % 5 == 4) (void)store.Commit();
    }
    (void)store.Commit();
    double real_ms = wall.ElapsedMillis();
    std::printf("dedupe=%-5s rows=%6zu physical=%7.1fKB real=%6.1fms\n",
                dedupe ? "on" : "off", store.RecordCount(),
                store.PhysicalBytes() / 1024.0, real_ms);
    report->AddRow()
        .Set("section", "dedupe")
        .Set("dedupe", dedupe)
        .Set("rows", store.RecordCount())
        .Set("physical_bytes", store.PhysicalBytes())
        .Set("real_ms", real_ms);
  }
  std::printf("(the paper ships with dedupe off: redundancy is unusual in "
              "real curation)\n\n");
}

void AblationBulk(JsonReport* report) {
  std::printf("--- C. bulk updates: full provenance vs approximate globs ---\n");
  std::printf("%-12s %14s %16s %16s\n", "bulk size", "full rows",
              "full bytes", "approx bytes");
  for (size_t entries : {size_t{100}, size_t{1000}, size_t{5000}}) {
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    wrap::TreeTargetDb target("T", tree::Tree());
    wrap::TreeSourceDb source(
        "S1", workload::GenOrganelleLike(entries, 4));
    EditorOptions opts;
    opts.strategy = provenance::Strategy::kTransactional;
    opts.enable_approx = true;
    auto editor = Editor::Create(&target, &backend, opts);
    if (!editor.ok()) return;
    if (!(*editor)->MountSource(&source).ok()) return;
    update::BulkCopySpec spec;
    spec.src = tree::PathGlob::MustParse("S1/*");
    spec.dst = tree::PathGlob::MustParse("T/*");
    auto n = (*editor)->BulkCopy(spec);
    if (!n.ok()) return;
    (void)(*editor)->Commit();
    std::printf("%-12zu %14zu %16zu %16zu\n", entries,
                (*editor)->store()->RecordCount(),
                (*editor)->store()->PhysicalBytes(),
                (*editor)->approx()->ApproxBytes());
    report->AddRow()
        .Set("section", "bulk")
        .Set("entries", entries)
        .Set("full_rows", (*editor)->store()->RecordCount())
        .Set("full_bytes", (*editor)->store()->PhysicalBytes())
        .Set("approx_bytes", (*editor)->approx()->ApproxBytes());
  }
  std::printf("(approximate storage is proportional to the statement, not "
              "the data touched)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  PrintHeader("Ablations", "design-choice studies beyond the paper's figures");
  JsonReport report("ablation");
  report.config().Set("steps", size_t{4000});
  AblationIndexes(&report);
  AblationDedupe(&report);
  AblationBulk(&report);
  report.WriteTo(flags.GetString("json", ""));
  return 0;
}
