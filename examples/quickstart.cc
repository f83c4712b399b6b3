// Quickstart: build a tiny curated database, copy data into it from a
// source, and ask where the data came from.
//
//   $ ./examples/example_quickstart

#include <cstdio>
#include <vector>

#include "cpdb/cpdb.h"

using namespace cpdb;

int main() {
  // 1. A provenance store (the stand-in for the MySQL database P of the
  //    paper's Figure 2).
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);

  // 2. The curated target database T: starts with one record.
  auto initial = tree::ParseTree("{ABC1: {accession: O95477}}");
  wrap::TreeTargetDb target("T", std::move(initial).value());

  // 3. A source database S1 (a wrapped web page / flat file).
  auto swissprot = tree::ParseTree(
      "{O95477: {name: ABC1, organism: \"H.sapiens\","
      " PTM: {kind: phospho, site: 24}}}");
  wrap::TreeSourceDb s1("SwissProt", std::move(swissprot).value());

  // 4. The provenance-aware editor — the only write path to T.
  EditorOptions opts;
  opts.strategy = provenance::Strategy::kHierarchicalTransactional;
  auto editor = Editor::Create(&target, &backend, opts);
  if (!editor.ok()) return 1;
  Editor& ed = **editor;
  if (!ed.MountSource(&s1).ok()) return 1;

  // 5. Curate: copy the PTM record from SwissProt into our entry,
  //    then annotate it, and commit the transaction.
  auto ptm_src = tree::Path::MustParse("SwissProt/O95477/PTM");
  auto ptm_dst = tree::Path::MustParse("T/ABC1/PTM");
  if (!ed.CopyPaste(ptm_src, ptm_dst).ok()) return 1;
  if (!ed.Insert(ptm_dst, "note", tree::Value("verified 2006-03")).ok()) {
    return 1;
  }
  if (!ed.Commit().ok()) return 1;

  std::printf("Curated database T:\n%s\n",
              tree::ToPretty(*ed.TargetView()).c_str());

  // 6. Ask provenance questions.
  auto trace = ed.query()->TraceBack(ptm_dst.Child("kind"));
  if (trace.ok() && trace->external_src.has_value()) {
    std::printf("T/ABC1/PTM/kind was copied from %s in transaction %lld\n",
                trace->external_src->ToString().c_str(),
                static_cast<long long>(trace->external_tid));
  }
  auto src = ed.query()->GetSrc(tree::Path::MustParse("T/ABC1/PTM/note"));
  if (src.ok() && src->has_value()) {
    std::printf("T/ABC1/PTM/note was created locally in transaction %lld\n",
                static_cast<long long>(**src));
  }

  std::printf("\nProvenance store (%zu records):\n",
              ed.store()->RecordCount());
  // The whole table in (Tid, Loc) order, one streamed batch at a time.
  std::vector<provenance::ProvRecord> records;
  provenance::ProvCursor scan = ed.store()->backend()->ScanAll();
  for (provenance::ProvRecord rec; scan.Next(&rec);) records.push_back(rec);
  if (scan.status().ok()) {
    std::printf("%s", provenance::RecordsToTable(records).c_str());
  }
  return 0;
}
