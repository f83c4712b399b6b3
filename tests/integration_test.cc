// End-to-end integration: relational source -> wrapper -> editor with
// archiving -> provenance queries -> archive replay, plus failure
// injection along the way.

#include <gtest/gtest.h>

#include "cpdb/cpdb.h"
#include "test_util.h"

namespace cpdb {
namespace {

using tree::Path;

TEST(IntegrationTest, FullCurationPipeline) {
  // A relational OrganelleDB-like source...
  relstore::Database source_db("organelledb");
  auto table = workload::FillOrganelleRelational(&source_db, 40, 21);
  ASSERT_TRUE(table.ok());
  wrap::RelationalSourceDb source("S1", &source_db, {table.value()});

  // ...a tree target with existing curated content...
  wrap::TreeTargetDb target("T", workload::GenMimiLike(10, 22));
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);

  EditorOptions opts;
  opts.strategy = provenance::Strategy::kHierarchicalTransactional;
  opts.enable_archive = true;
  opts.archive_checkpoint_every = 3;
  opts.record_txn_meta = true;
  opts.user = "integration";
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok());
  Editor& ed = **editor;
  ASSERT_TRUE(ed.MountSource(&source).ok());

  // Curate across several transactions.
  ASSERT_TRUE(ed.CopyPaste(Path::MustParse("S1/organelle/o5"),
                           Path::MustParse("T/imported5"))
                  .ok());
  ASSERT_TRUE(ed.Insert(Path::MustParse("T/imported5"), "curated",
                        tree::Value("yes"))
                  .ok());
  ASSERT_TRUE(ed.Commit().ok());

  ASSERT_TRUE(ed.CopyPaste(Path::MustParse("T/imported5"),
                           Path::MustParse("T/copy_of_5"))
                  .ok());
  ASSERT_TRUE(ed.Commit().ok());

  // Failure injection: a bad op mid-transaction, then abort.
  ASSERT_TRUE(ed.Insert(Path::MustParse("T"), "scratch").ok());
  EXPECT_FALSE(ed.Insert(Path::MustParse("T"), "scratch").ok());  // dup
  ASSERT_TRUE(ed.Abort().ok());
  EXPECT_FALSE(ed.universe().Contains(Path::MustParse("T/scratch")));

  // Queries: the two-hop chain T/copy_of_5 <- T/imported5 <- S1.
  auto trace =
      ed.query()->TraceBack(Path::MustParse("T/copy_of_5/protein"));
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->external_src.has_value());
  EXPECT_EQ(trace->external_src->ToString(),
            "S1/organelle/o5/protein");
  ASSERT_EQ(trace->steps.size(), 2u);
  EXPECT_EQ(trace->steps[0].tid, 2);
  EXPECT_EQ(trace->steps[1].tid, 1);

  // The locally-added annotation traces to a local insert, and the copy
  // of it in copy_of_5 still ends at that insert.
  auto src = ed.query()->GetSrc(Path::MustParse("T/copy_of_5/curated"));
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(src->has_value());
  EXPECT_EQ(**src, 1);

  // Archive: version 0 (pre-curation) lacks the import; version 2 has
  // both; replay equals the live tree.
  auto* arch = ed.archive();
  ASSERT_NE(arch, nullptr);
  auto v0 = arch->GetVersion(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_FALSE(v0->Contains(Path::MustParse("T/imported5")));
  auto v2 = arch->GetVersion(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->Equals(ed.universe()));

  // TxnMeta was recorded for each commit with the session user.
  auto meta_table = prov_db.GetTable(provenance::ProvBackend::kMetaTable);
  ASSERT_TRUE(meta_table.ok());
  EXPECT_EQ((*meta_table)->RowCount(), 2u);
  (*meta_table)->Scan([](const relstore::Rid&, const relstore::Row& row) {
    EXPECT_EQ(row[1].AsString(), "integration");
    return true;
  });
}

TEST(IntegrationTest, RelationalTargetEndToEnd) {
  // Curating INTO a relational database: tree source, table target.
  relstore::Database target_db("mydb");
  relstore::Schema schema({{"id", relstore::ColumnType::kString, false},
                           {"protein", relstore::ColumnType::kString, true},
                           {"organelle", relstore::ColumnType::kString,
                            true},
                           {"species", relstore::ColumnType::kString,
                            true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&target_db, "catalog", schema).ok());
  wrap::RelationalTargetDb target("T", &target_db, {"catalog"});

  wrap::TreeSourceDb source("S1", workload::GenOrganelleLike(10, 23));
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);
  EditorOptions opts;
  opts.strategy = provenance::Strategy::kNaive;
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok());
  Editor& ed = **editor;
  ASSERT_TRUE(ed.MountSource(&source).ok());

  // Paste a whole source entry as a tuple of the catalog relation.
  ASSERT_TRUE(ed.CopyPaste(Path::MustParse("S1/o3"),
                           Path::MustParse("T/catalog/r1"))
                  .ok());
  // The native relational store now holds the row.
  auto t = target_db.GetTable("catalog");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 1u);

  // Field-level curation: fix the species.
  ASSERT_TRUE(ed.Delete(Path::MustParse("T/catalog/r1"), "species").ok());
  ASSERT_TRUE(ed.Insert(Path::MustParse("T/catalog/r1"), "species",
                        tree::Value("H.sapiens"))
                  .ok());

  // Provenance knows the row came from the source and the fix was local.
  auto hist = ed.query()->GetHist(Path::MustParse("T/catalog/r1/protein"));
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->size(), 1u);
  auto src = ed.query()->GetSrc(Path::MustParse("T/catalog/r1/species"));
  ASSERT_TRUE(src.ok());
  EXPECT_TRUE(src->has_value());
}

TEST(IntegrationTest, TraceSurvivesSourceChange) {
  // The motivating scenario: the source changes after the copy; the
  // provenance record still names the version-time location.
  auto s1_content = tree::ParseTree("{p: {v: 1}}");
  wrap::TreeSourceDb s1("S1", std::move(s1_content).value());
  wrap::TreeTargetDb target("T", tree::Tree());
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);
  auto editor = Editor::Create(&target, &backend, EditorOptions{});
  ASSERT_TRUE(editor.ok());
  Editor& ed = **editor;
  ASSERT_TRUE(ed.MountSource(&s1).ok());
  ASSERT_TRUE(
      ed.CopyPaste(Path::MustParse("S1/p"), Path::MustParse("T/e")).ok());
  ASSERT_TRUE(ed.Commit().ok());

  // "the databases from which the data was copied have changed" — the
  // mounted view is a snapshot, and the provenance link remains valid
  // regardless of what happens to the live source afterwards.
  auto trace = ed.query()->TraceBack(Path::MustParse("T/e/v"));
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->external_src.has_value());
  EXPECT_EQ(trace->external_src->ToString(), "S1/p/v");
}

}  // namespace
}  // namespace cpdb
