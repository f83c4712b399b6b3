// Golden tests: running the paper's Figure 3 update operation must
// reproduce the provenance tables of Figure 5(a)-(d) exactly, and the
// final target tree of Figure 4.

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using testutil::MakeFigureSession;
using testutil::Rec;

std::vector<ProvRecord> RunFigure3(Strategy strategy, bool one_txn) {
  auto s = MakeFigureSession(strategy);
  EXPECT_NE(s, nullptr);
  Status st = s->editor->ApplyScriptText(testutil::Figure3ScriptText());
  EXPECT_TRUE(st.ok()) << st;
  if (one_txn) {
    st = s->editor->Commit();
    EXPECT_TRUE(st.ok()) << st;
  }
  auto records = testutil::DrainAll(s->editor->store()->backend()->ScanAll());
  EXPECT_TRUE(records.ok());
  auto out = std::move(records).value();
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectTable(const std::vector<ProvRecord>& actual,
                 std::vector<ProvRecord> expected) {
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(actual.size(), expected.size())
      << "actual table:\n"
      << provenance::RecordsToTable(actual);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "row " << i << ": got " << actual[i].ToString() << ", want "
        << expected[i].ToString();
  }
}

TEST(Figure5, NaiveTableA) {
  // Figure 5(a): one transaction per operation, one record per node.
  auto actual = RunFigure3(Strategy::kNaive, /*one_txn=*/false);
  ExpectTable(actual, {
      Rec(121, 'D', "T/c5"),
      Rec(121, 'D', "T/c5/x"),
      Rec(121, 'D', "T/c5/y"),
      Rec(122, 'C', "T/c1/y", "S1/a1/y"),
      Rec(123, 'I', "T/c2"),
      Rec(124, 'C', "T/c2", "S1/a2"),
      Rec(124, 'C', "T/c2/x", "S1/a2/x"),
      Rec(125, 'I', "T/c2/y"),
      Rec(126, 'C', "T/c2/y", "S2/b3/y"),
      Rec(127, 'C', "T/c3", "S1/a3"),
      Rec(127, 'C', "T/c3/x", "S1/a3/x"),
      Rec(127, 'C', "T/c3/y", "S1/a3/y"),
      Rec(128, 'I', "T/c4"),
      Rec(129, 'C', "T/c4", "S2/b2"),
      Rec(129, 'C', "T/c4/x", "S2/b2/x"),
      Rec(130, 'I', "T/c4/y"),
  });
}

TEST(Figure5, TransactionalTableB) {
  // Figure 5(b): the entire update as one transaction; only net changes.
  auto actual = RunFigure3(Strategy::kTransactional, /*one_txn=*/true);
  ExpectTable(actual, {
      Rec(121, 'D', "T/c5"),
      Rec(121, 'D', "T/c5/x"),
      Rec(121, 'D', "T/c5/y"),
      Rec(121, 'C', "T/c1/y", "S1/a1/y"),
      Rec(121, 'C', "T/c2", "S1/a2"),
      Rec(121, 'C', "T/c2/x", "S1/a2/x"),
      Rec(121, 'C', "T/c2/y", "S2/b3/y"),
      Rec(121, 'C', "T/c3", "S1/a3"),
      Rec(121, 'C', "T/c3/x", "S1/a3/x"),
      Rec(121, 'C', "T/c3/y", "S1/a3/y"),
      Rec(121, 'C', "T/c4", "S2/b2"),
      Rec(121, 'C', "T/c4/x", "S2/b2/x"),
      Rec(121, 'I', "T/c4/y"),
  });
}

TEST(Figure5, HierarchicalTableC) {
  // Figure 5(c): one record per operation; children inferred.
  auto actual = RunFigure3(Strategy::kHierarchical, /*one_txn=*/false);
  ExpectTable(actual, {
      Rec(121, 'D', "T/c5"),
      Rec(122, 'C', "T/c1/y", "S1/a1/y"),
      Rec(123, 'I', "T/c2"),
      Rec(124, 'C', "T/c2", "S1/a2"),
      Rec(125, 'I', "T/c2/y"),
      Rec(126, 'C', "T/c2/y", "S2/b3/y"),
      Rec(127, 'C', "T/c3", "S1/a3"),
      Rec(128, 'I', "T/c4"),
      Rec(129, 'C', "T/c4", "S2/b2"),
      Rec(130, 'I', "T/c4/y"),
  });
}

TEST(Figure5, HierarchicalTransactionalTableD) {
  // Figure 5(d): hierarchical + net effect; 7 records.
  auto actual =
      RunFigure3(Strategy::kHierarchicalTransactional, /*one_txn=*/true);
  ExpectTable(actual, {
      Rec(121, 'D', "T/c5"),
      Rec(121, 'C', "T/c1/y", "S1/a1/y"),
      Rec(121, 'C', "T/c2", "S1/a2"),
      Rec(121, 'C', "T/c2/y", "S2/b3/y"),
      Rec(121, 'C', "T/c3", "S1/a3"),
      Rec(121, 'C', "T/c4", "S2/b2"),
      Rec(121, 'I', "T/c4/y"),
  });
}

TEST(Figure4, FinalTargetTree) {
  // Executing Figure 3 yields the T' of Figure 4: c5 gone, c1/y updated,
  // c2/c3/c4 assembled from the sources.
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());

  auto expected = tree::ParseTree(
      "{c1: {x: 1, y: 3},"
      " c2: {x: 3, y: 5},"
      " c3: {x: 7, y: 6},"
      " c4: {x: 4, y: 12}}");
  ASSERT_TRUE(expected.ok());
  const tree::Tree* t_final = s->editor->TargetView();
  ASSERT_NE(t_final, nullptr);
  EXPECT_TRUE(t_final->Equals(expected.value()))
      << "got " << t_final->ToString();
}

TEST(Figure4, NativeTargetStaysInSync) {
  // The native Timber-substitute must mirror the universe after each
  // per-op commit (N) and after the commit (HT).
  for (Strategy strat : {Strategy::kNaive,
                         Strategy::kHierarchicalTransactional}) {
    auto s = MakeFigureSession(strat);
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(
        s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
    ASSERT_TRUE(s->editor->Commit().ok());
    EXPECT_TRUE(s->target->content().Equals(*s->editor->TargetView()))
        << "strategy " << provenance::StrategyName(strat);
  }
}

TEST(Figure5, StorageCountsMatchPaperDiscussion) {
  // "the reduced table is about 25% smaller than Prov" — 10 vs 16 rows
  // hierarchical vs naive on this example; HT stores i + d + C = 7.
  auto n = RunFigure3(Strategy::kNaive, false);
  auto h = RunFigure3(Strategy::kHierarchical, false);
  auto t = RunFigure3(Strategy::kTransactional, true);
  auto ht = RunFigure3(Strategy::kHierarchicalTransactional, true);
  EXPECT_EQ(n.size(), 16u);
  EXPECT_EQ(h.size(), 10u);
  EXPECT_EQ(t.size(), 13u);
  EXPECT_EQ(ht.size(), 7u);
}

TEST(Figure5, HierarchicalExpandsToNaive) {
  // Expanding Figure 5(c) through the inference rules yields exactly
  // Figure 5(a) (Section 2.1.3's recursive view).
  auto s = MakeFigureSession(Strategy::kHierarchical);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  auto hier = testutil::DrainAll(s->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(hier.ok());
  auto versions = s->editor->archive()->MakeVersionFn();
  auto expanded = provenance::ExpandToFull(hier.value(), versions);
  ASSERT_TRUE(expanded.ok()) << expanded.status();

  auto naive = RunFigure3(Strategy::kNaive, false);
  ExpectTable(expanded.value(), naive);
}

}  // namespace
}  // namespace cpdb
