// The Section 6 extensions: bulk updates compiled to atomic copies, and
// approximate (glob) provenance with may/may-not semantics.

#include <gtest/gtest.h>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvOp;
using query::ApproxProvStore;
using query::ApproxRecord;
using query::MayAnswer;
using tree::Path;
using tree::PathGlob;

TEST(BulkTest, ExpandBulkCopyGeneratesOneOpPerMatch) {
  auto universe = tree::ParseTree(
      "{S1: {o1: {loc: a}, o2: {loc: b}, o3: {loc: c}}, T: {}}");
  ASSERT_TRUE(universe.ok());
  update::BulkCopySpec spec;
  spec.src = PathGlob::MustParse("S1/*");
  spec.dst = PathGlob::MustParse("T/*");
  auto script = update::ExpandBulkCopy(universe.value(), spec);
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->size(), 3u);
  EXPECT_EQ((*script)[0].ToString(), "copy S1/o1 into T/o1");
  EXPECT_EQ((*script)[2].ToString(), "copy S1/o3 into T/o3");
}

TEST(BulkTest, ArityMismatchAndDeepDstRejected) {
  tree::Tree universe;
  update::BulkCopySpec bad1;
  bad1.src = PathGlob::MustParse("S1/*/x");
  bad1.dst = PathGlob::MustParse("T/a");
  EXPECT_FALSE(update::ExpandBulkCopy(universe, bad1).ok());
  update::BulkCopySpec bad2;
  bad2.src = PathGlob::MustParse("S1/**");
  bad2.dst = PathGlob::MustParse("T/**");
  EXPECT_FALSE(update::ExpandBulkCopy(universe, bad2).ok());
}

TEST(BulkTest, EditorBulkCopyTracksFullAndApproxProvenance) {
  auto s = testutil::MakeFigureSession(
      provenance::Strategy::kTransactional);
  ASSERT_NE(s, nullptr);
  // Rebuild the editor with approximate tracking on.
  relstore::Database prov_db("provdb2");
  provenance::ProvBackend backend(&prov_db);
  EditorOptions opts;
  opts.strategy = provenance::Strategy::kTransactional;
  opts.enable_approx = true;
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  wrap::TreeSourceDb s1("S1", testutil::Figure4SourceS1());
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok());
  Editor& ed = **editor;
  ASSERT_TRUE(ed.MountSource(&s1).ok());

  update::BulkCopySpec spec;
  spec.src = PathGlob::MustParse("S1/*");
  spec.dst = PathGlob::MustParse("T/*");
  // The "*" binds jointly: each S1 entry lands under its own name in T.
  auto n = ed.BulkCopy(spec);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 3u);  // a1, a2, a3
  ASSERT_TRUE(ed.Commit().ok());
  EXPECT_TRUE(ed.universe().Contains(Path::MustParse("T/a1/x")));

  // Full provenance: one record per copied node (transactional-naive).
  EXPECT_GT(ed.store()->RecordCount(), 3u);
  // Approximate provenance: exactly one glob record for the statement.
  ASSERT_NE(ed.approx(), nullptr);
  EXPECT_EQ(ed.approx()->RecordCount(), 1u);
  EXPECT_LT(ed.approx()->ApproxBytes(), 64u);
}

TEST(BulkTest, PerOpBulkCopyApproxRecordCoversEveryTidItUsed) {
  // Under N/H each atomic copy of a bulk commits as its own transaction,
  // so the glob record must answer for the bulk's first through last
  // tid — and not for the next, unrelated one.
  for (provenance::Strategy strategy :
       {provenance::Strategy::kNaive, provenance::Strategy::kHierarchical}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    EditorOptions opts;
    opts.strategy = strategy;
    opts.first_tid = 10;
    opts.enable_approx = true;
    wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
    wrap::TreeSourceDb s1("S1", testutil::Figure4SourceS1());
    auto editor = Editor::Create(&target, &backend, opts);
    ASSERT_TRUE(editor.ok());
    Editor& ed = **editor;
    ASSERT_TRUE(ed.MountSource(&s1).ok());

    update::BulkCopySpec spec;
    spec.src = PathGlob::MustParse("S1/*");
    spec.dst = PathGlob::MustParse("T/*");
    auto n = ed.BulkCopy(spec);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_EQ(*n, 3u);  // a1, a2, a3 commit as tids 10, 11, 12
    EXPECT_EQ(ed.store()->LastCommittedTid(), 12);
    ASSERT_EQ(ed.approx()->RecordCount(), 1u);

    const query::ApproxProvStore& approx = *ed.approx();
    EXPECT_NE(approx.MayComeFrom(10, Path::MustParse("T/a1"),
                                 Path::MustParse("S1/a1")),
              MayAnswer::kNo);
    EXPECT_NE(approx.MayComeFrom(12, Path::MustParse("T/a3"),
                                 Path::MustParse("S1/a3")),
              MayAnswer::kNo);
    EXPECT_EQ(approx.MayComeFrom(13, Path::MustParse("T/a3"),
                                 Path::MustParse("S1/a3")),
              MayAnswer::kNo);
  }
}

TEST(BulkTest, AbortedTxnBulkCopyLeavesNoGlobRecord) {
  // Under T/HT a bulk's glob record belongs to the open transaction: an
  // abort discards it with the copies, so it never answers for the
  // unrelated transaction that later commits under the same tid.
  for (provenance::Strategy strategy :
       {provenance::Strategy::kTransactional,
        provenance::Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    EditorOptions opts;
    opts.strategy = strategy;
    opts.first_tid = 10;
    opts.enable_approx = true;
    wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
    wrap::TreeSourceDb s1("S1", testutil::Figure4SourceS1());
    auto editor = Editor::Create(&target, &backend, opts);
    ASSERT_TRUE(editor.ok());
    Editor& ed = **editor;
    ASSERT_TRUE(ed.MountSource(&s1).ok());

    update::BulkCopySpec spec;
    spec.src = PathGlob::MustParse("S1/*");
    spec.dst = PathGlob::MustParse("T/*");
    ASSERT_TRUE(ed.BulkCopy(spec).ok());
    ASSERT_TRUE(ed.Abort().ok());
    ASSERT_TRUE(ed.Insert(Path::MustParse("T"), "unrelated").ok());
    ASSERT_TRUE(ed.Commit().ok());
    ASSERT_EQ(ed.store()->LastCommittedTid(), 10);

    EXPECT_EQ(ed.approx()->RecordCount(), 0u);
    EXPECT_EQ(ed.approx()->MayComeFrom(10, Path::MustParse("T/a1"),
                                       Path::MustParse("S1/a1")),
              MayAnswer::kNo);
  }
}

TEST(ApproxTest, MayAffect) {
  ApproxProvStore store;
  ApproxRecord rec;
  rec.tid = 5;
  rec.op = ProvOp::kCopy;
  rec.loc = PathGlob::MustParse("T/a/*/b");
  rec.src = PathGlob::MustParse("S/a/*/b");
  store.Track(rec);

  EXPECT_EQ(store.MayAffect(Path::MustParse("T/a/x/b")).size(), 1u);
  EXPECT_TRUE(store.MayAffect(Path::MustParse("T/a/x/c")).empty());
}

TEST(ApproxTest, MayComeFromThreeValued) {
  ApproxProvStore store;
  ApproxRecord wild;
  wild.tid = 5;
  wild.op = ProvOp::kCopy;
  wild.loc = PathGlob::MustParse("T/a/*/b");
  wild.src = PathGlob::MustParse("S/a/*/b");
  store.Track(wild);
  ApproxRecord exact;
  exact.tid = 6;
  exact.op = ProvOp::kCopy;
  exact.loc = PathGlob::MustParse("T/q");
  exact.src = PathGlob::MustParse("S/q0");
  store.Track(exact);

  // Wildcard record: only "maybe".
  EXPECT_EQ(store.MayComeFrom(5, Path::MustParse("T/a/x/b"),
                              Path::MustParse("S/a/x/b")),
            MayAnswer::kMaybe);
  // Joint binding: T/a/x/b cannot come from S/a/y/b.
  EXPECT_EQ(store.MayComeFrom(5, Path::MustParse("T/a/x/b"),
                              Path::MustParse("S/a/y/b")),
            MayAnswer::kNo);
  // Wrong tid.
  EXPECT_EQ(store.MayComeFrom(4, Path::MustParse("T/a/x/b"),
                              Path::MustParse("S/a/x/b")),
            MayAnswer::kNo);
  // Exact record: definite yes.
  EXPECT_EQ(store.MayComeFrom(6, Path::MustParse("T/q"),
                              Path::MustParse("S/q0")),
            MayAnswer::kYes);
}

TEST(ApproxTest, MayComeFromAnywhere) {
  ApproxProvStore store;
  ApproxRecord rec;
  rec.tid = 5;
  rec.op = ProvOp::kCopy;
  rec.loc = PathGlob::MustParse("T/*/organelle");
  rec.src = PathGlob::MustParse("S1/organelle/*/organelle");
  store.Track(rec);
  EXPECT_EQ(store.MayComeFromAnywhere(
                Path::MustParse("T/o3/organelle"),
                PathGlob::MustParse("S1/organelle/*/organelle")),
            MayAnswer::kMaybe);
  EXPECT_EQ(store.MayComeFromAnywhere(
                Path::MustParse("T/o3/species"),
                PathGlob::MustParse("S1/organelle/*/organelle")),
            MayAnswer::kNo);
}

TEST(ApproxTest, StorageIsProportionalToStatementCount) {
  // "The storage needed for approximate provenance remains proportional
  // to the size of the query or update" — 3 statements = 3 records, no
  // matter how much data each touched.
  ApproxProvStore store;
  for (int i = 0; i < 3; ++i) {
    ApproxRecord rec;
    rec.tid = i;
    rec.op = ProvOp::kCopy;
    rec.loc = PathGlob::MustParse("T/batch" + std::to_string(i) + "/**");
    rec.src = PathGlob::MustParse("S/**");
    store.Track(rec);
  }
  EXPECT_EQ(store.RecordCount(), 3u);
}

}  // namespace
}  // namespace cpdb
