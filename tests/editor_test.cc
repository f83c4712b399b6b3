#include "cpdb/editor.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::Strategy;
using testutil::MakeFigureSession;
using tree::Path;

TEST(EditorTest, RejectsUpdatesOutsideTarget) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  // Writing into a source database is forbidden (Section 2: updates only
  // in a subtree of T).
  EXPECT_TRUE(s->editor->Insert(Path::MustParse("S1"), "x")
                  .IsInvalidArgument());
  EXPECT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S1/a1"),
                              Path::MustParse("S2/b1"))
                  .IsInvalidArgument());
  // Deleting a whole database is forbidden.
  EXPECT_TRUE(s->editor->Delete(Path(), "T").IsInvalidArgument());
  // Overwriting the target root is forbidden.
  EXPECT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S1/a1"), Path::MustParse("T"))
                  .IsInvalidArgument());
}

TEST(EditorTest, CopyFromAnySourceIntoTarget) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S2/b1"),
                              Path::MustParse("T/c9"))
                  .ok());
  EXPECT_TRUE(s->editor->universe().Contains(Path::MustParse("T/c9/x")));
}

TEST(EditorTest, FailedUpdateLeavesNoTrace) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  size_t rows_before = s->editor->store()->RecordCount();
  tree::Tree before = s->editor->universe().Clone();
  // Duplicate edge: c1 already exists.
  EXPECT_FALSE(s->editor->Insert(Path::MustParse("T"), "c1").ok());
  EXPECT_TRUE(s->editor->universe().Equals(before));
  EXPECT_EQ(s->editor->store()->RecordCount(), rows_before);
}

TEST(EditorTest, MountingAfterFirstUpdateFails) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "fresh").ok());
  wrap::TreeSourceDb late("S9", tree::Tree());
  EXPECT_TRUE(s->editor->MountSource(&late).IsFailedPrecondition());
}

TEST(EditorTest, DuplicateOrCollidingMountsFail) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  wrap::TreeSourceDb dup("S1", tree::Tree());
  EXPECT_TRUE(s->editor->MountSource(&dup).IsAlreadyExists());
  wrap::TreeSourceDb clash("T", tree::Tree());
  EXPECT_TRUE(s->editor->MountSource(&clash).IsInvalidArgument());
}

TEST(EditorTest, AbortRevertsUniverseAndProvlist) {
  auto s = MakeFigureSession(Strategy::kHierarchicalTransactional);
  ASSERT_NE(s, nullptr);
  tree::Tree before = s->editor->universe().Clone();
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "tmp").ok());
  ASSERT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S1/a1"),
                              Path::MustParse("T/tmp2"))
                  .ok());
  ASSERT_TRUE(s->editor->Delete(Path::MustParse("T"), "c1").ok());
  EXPECT_EQ(s->editor->PendingOps(), 3u);
  ASSERT_TRUE(s->editor->Abort().ok());
  EXPECT_TRUE(s->editor->universe().Equals(before));
  EXPECT_EQ(s->editor->PendingOps(), 0u);
  EXPECT_EQ(s->editor->store()->RecordCount(), 0u);
  // The native target never saw the aborted ops.
  EXPECT_TRUE(s->target->content().Equals(*s->editor->TargetView()));
}

TEST(EditorTest, FailedTxnCommitUnwindsTheTransaction) {
  // A T/HT commit whose provenance write fails leaves nothing of its
  // transaction behind: not in the universe, and not in the provlist,
  // from which the next commit would publish records for data the
  // target never received.
  for (Strategy strategy :
       {Strategy::kTransactional, Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    auto s = MakeFigureSession(strategy, /*first_tid=*/1,
                               /*enable_archive=*/false);
    ASSERT_NE(s, nullptr);
    const Path x = Path::MustParse("T/x");
    // A planted {1, T/x} row makes the commit's WriteRecords collide on
    // the {Tid, Loc} key.
    ASSERT_TRUE(
        s->backend->WriteRecords({provenance::ProvRecord::Insert(1, x)}).ok());
    ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "x").ok());
    EXPECT_FALSE(s->editor->Commit().ok());
    EXPECT_TRUE(s->target->content().Equals(*s->editor->TargetView()));
    EXPECT_EQ(s->editor->PendingOps(), 0u);

    ASSERT_TRUE(s->editor->Commit().ok());
    auto at_x = testutil::DrainAll(s->backend->ScanAtLoc(x));
    ASSERT_TRUE(at_x.ok());
    ASSERT_EQ(at_x->size(), 1u);  // the planted row alone
    EXPECT_EQ((*at_x)[0].tid, 1);
  }
}

TEST(EditorTest, FailedSealHandsBackItsTid) {
  // A seal whose provenance write fails consumes no version number: the
  // next unit commits under the tid the failed one would have had, and
  // the archive (which takes versions consecutively) records it.
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kHierarchical, Strategy::kTransactional,
        Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    auto s = MakeFigureSession(strategy, /*first_tid=*/1);
    ASSERT_NE(s, nullptr);
    const bool txn = strategy == Strategy::kTransactional ||
                     strategy == Strategy::kHierarchicalTransactional;
    auto insert = [&](const std::string& label) {
      Status st = s->editor->Insert(Path::MustParse("T"), label);
      return st.ok() && txn ? s->editor->Commit() : st;
    };
    // A planted {1, T/x} row makes the seal's WriteRecords collide on the
    // {Tid, Loc} key.
    ASSERT_TRUE(s->backend
                    ->WriteRecords({provenance::ProvRecord::Insert(
                        1, Path::MustParse("T/x"))})
                    .ok());
    EXPECT_FALSE(insert("x").ok());
    EXPECT_EQ(s->editor->store()->LastCommittedTid(), 0);

    Status next = insert("y");
    ASSERT_TRUE(next.ok()) << next.ToString();
    EXPECT_EQ(s->editor->store()->LastCommittedTid(), 1);
    ASSERT_NE(s->editor->archive(), nullptr);
    EXPECT_TRUE(s->editor->archive()->GetVersion(1).ok());
  }
}

TEST(EditorTest, AbortFailsForPerOpStrategies) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "x").ok());
  EXPECT_TRUE(s->editor->Abort().IsFailedPrecondition());
}

TEST(EditorTest, CommitBoundariesControlTransactionGranularity) {
  auto s = MakeFigureSession(Strategy::kTransactional, /*first_tid=*/1);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "a").ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "b").ok());
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "c").ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  auto records = testutil::DrainAll(s->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].tid, 1);
  EXPECT_EQ((*records)[1].tid, 2);
  EXPECT_EQ((*records)[2].tid, 2);
}

TEST(EditorTest, TemporaryDataLeavesNoTrace) {
  // Insert and delete within one transaction: nothing committed
  // ("no links corresponding to temporary data ... are stored").
  auto s = MakeFigureSession(Strategy::kTransactional);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->Insert(Path::MustParse("T"), "tmp").ok());
  ASSERT_TRUE(s->editor->Delete(Path::MustParse("T"), "tmp").ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  EXPECT_EQ(s->editor->store()->RecordCount(), 0u);
}

TEST(EditorTest, CopyThenRecopyKeepsNetProvenance) {
  // The paper's example: copy from S1, reconsider, use S2 instead —
  // same provenance as copying only from S2.
  auto s = MakeFigureSession(Strategy::kTransactional);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S1/a1"),
                              Path::MustParse("T/e"))
                  .ok());
  ASSERT_TRUE(s->editor
                  ->CopyPaste(Path::MustParse("S2/b1"),
                              Path::MustParse("T/e"))
                  .ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  auto records = testutil::DrainAll(s->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  for (const auto& r : *records) {
    EXPECT_EQ(r.src.At(0), "S2") << r.ToString();
  }
}

TEST(EditorTest, ScriptTextDrivesTheEditor) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor
                  ->ApplyScriptText("ins {w : {}} into T;"
                                    "copy S1/a2 into T/w/sub")
                  .ok());
  EXPECT_TRUE(s->editor->universe().Contains(Path::MustParse("T/w/sub/x")));
  EXPECT_FALSE(s->editor->ApplyScriptText("bogus nonsense").ok());
}

TEST(EditorTest, ArchiveRecordsEveryCommittedVersion) {
  auto s = MakeFigureSession(Strategy::kHierarchicalTransactional,
                             /*first_tid=*/121, /*enable_archive=*/true);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  auto* arch = s->editor->archive();
  ASSERT_NE(arch, nullptr);
  EXPECT_EQ(arch->base_version(), 120);
  EXPECT_EQ(arch->last_version(), 121);
  auto v121 = arch->GetVersion(121);
  ASSERT_TRUE(v121.ok());
  EXPECT_TRUE(v121->Equals(s->editor->universe()));
  auto v120 = arch->GetVersion(120);
  ASSERT_TRUE(v120.ok());
  EXPECT_TRUE(v120->Contains(Path::MustParse("T/c5")));
}

TEST(EditorTest, TotalOpsCounts) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  EXPECT_EQ(s->editor->TotalOps(), 10u);
}

}  // namespace
}  // namespace cpdb
