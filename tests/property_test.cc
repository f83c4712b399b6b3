// Property-based tests over random update workloads (parameterized on
// seed and pattern): the paper's storage bounds (Sections 2.1.2-2.1.4),
// the expansion equivalence of hierarchical provenance, and
// cross-strategy agreement of the provenance queries.

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using testutil::MakeFigureSession;
using workload::GenOptions;
using workload::Pattern;

struct RunResult {
  std::unique_ptr<testutil::Session> session;
  size_t applied = 0;
};

RunResult RunPattern(Strategy strategy, Pattern pattern, uint64_t seed,
                     size_t steps, size_t txn_len) {
  RunResult out;
  out.session = MakeFigureSession(strategy, /*first_tid=*/1,
                                  /*enable_archive=*/true);
  EXPECT_NE(out.session, nullptr);
  GenOptions gen;
  gen.pattern = pattern;
  gen.seed = seed;
  gen.source_label = "S1";
  out.applied =
      testutil::RunRandomWorkload(out.session.get(), gen, steps, txn_len);
  return out;
}

using SeedPattern = std::tuple<uint64_t, Pattern>;

class RandomWorkloadTest : public ::testing::TestWithParam<SeedPattern> {};

TEST_P(RandomWorkloadTest, AllStrategiesProduceSameFinalTree) {
  auto [seed, pattern] = GetParam();
  const tree::Tree* reference = nullptr;
  tree::Tree ref_clone;
  for (Strategy strat :
       {Strategy::kNaive, Strategy::kTransactional, Strategy::kHierarchical,
        Strategy::kHierarchicalTransactional}) {
    auto run = RunPattern(strat, pattern, seed, 120, 5);
    ASSERT_GT(run.applied, 0u);
    const tree::Tree* t = run.session->editor->TargetView();
    ASSERT_NE(t, nullptr);
    if (reference == nullptr) {
      ref_clone = t->Clone();
      reference = &ref_clone;
    } else {
      EXPECT_TRUE(t->Equals(*reference)) << provenance::StrategyName(strat);
    }
    // And the native target mirrors the universe.
    EXPECT_TRUE(run.session->target->content().Equals(*t));
  }
}

TEST_P(RandomWorkloadTest, StorageBoundsHold) {
  auto [seed, pattern] = GetParam();
  auto n = RunPattern(Strategy::kNaive, pattern, seed, 150, 5);
  auto t = RunPattern(Strategy::kTransactional, pattern, seed, 150, 5);
  auto h = RunPattern(Strategy::kHierarchical, pattern, seed, 150, 5);
  auto ht = RunPattern(Strategy::kHierarchicalTransactional, pattern, seed,
                       150, 5);
  size_t rows_n = n.session->editor->store()->RecordCount();
  size_t rows_t = t.session->editor->store()->RecordCount();
  size_t rows_h = h.session->editor->store()->RecordCount();
  size_t rows_ht = ht.session->editor->store()->RecordCount();

  // |HProv| <= |U| ("an update sequence U can be described by a
  // hierarchical provenance table with |U| entries").
  EXPECT_LE(rows_h, h.applied);
  // Transactional stores at most the naive row count (net effects only).
  EXPECT_LE(rows_t, rows_n);
  // HT is bounded by both H and T ("bounded above by both |U| and
  // i + d + c").
  EXPECT_LE(rows_ht, rows_t);
  EXPECT_LE(rows_ht, rows_h + 1);  // +1 slack: txn grouping of deletes
  // Hierarchical never stores more than naive.
  EXPECT_LE(rows_h, rows_n);
}

TEST_P(RandomWorkloadTest, HierarchicalExpandsToNaive) {
  // The inference rules recover exactly the naive table from the
  // hierarchical one (per-op transactions), on any workload.
  auto [seed, pattern] = GetParam();
  auto n = RunPattern(Strategy::kNaive, pattern, seed, 100, 5);
  auto h = RunPattern(Strategy::kHierarchical, pattern, seed, 100, 5);
  ASSERT_EQ(n.applied, h.applied);

  auto naive_records =
      testutil::DrainAll(n.session->editor->store()->backend()->ScanAll());
  auto hier_records =
      testutil::DrainAll(h.session->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(naive_records.ok());
  ASSERT_TRUE(hier_records.ok());

  auto versions = h.session->editor->archive()->MakeVersionFn();
  auto expanded = provenance::ExpandToFull(hier_records.value(), versions);
  ASSERT_TRUE(expanded.ok()) << expanded.status();

  auto want = naive_records.value();
  std::sort(want.begin(), want.end());
  ASSERT_EQ(expanded->size(), want.size())
      << "hier rows " << hier_records->size();
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*expanded)[i], want[i]) << "row " << i;
  }
}

TEST_P(RandomWorkloadTest, TraceAgreesAcrossAllStrategies) {
  auto [seed, pattern] = GetParam();
  // Per-op pair (N, H) must agree exactly; transactional pair (T, HT)
  // must agree exactly with each other.
  auto n = RunPattern(Strategy::kNaive, pattern, seed, 80, 5);
  auto h = RunPattern(Strategy::kHierarchical, pattern, seed, 80, 5);
  auto t = RunPattern(Strategy::kTransactional, pattern, seed, 80, 5);
  auto ht = RunPattern(Strategy::kHierarchicalTransactional, pattern, seed,
                       80, 5);
  const tree::Tree* target = n.session->editor->TargetView();
  ASSERT_NE(target, nullptr);
  std::vector<tree::Path> probes;
  target->Visit([&](const tree::Path& rel, const tree::Tree&) {
    if (!rel.IsRoot() && probes.size() < 30) {
      probes.push_back(tree::Path({std::string("T")}).Concat(rel));
    }
  });
  for (const tree::Path& p : probes) {
    auto tn = n.session->editor->query()->TraceBack(p);
    auto th = h.session->editor->query()->TraceBack(p);
    ASSERT_TRUE(tn.ok());
    ASSERT_TRUE(th.ok());
    EXPECT_EQ(tn->origin_tid, th->origin_tid) << p.ToString();
    EXPECT_EQ(tn->external_src.has_value(), th->external_src.has_value());
    if (tn->external_src.has_value() && th->external_src.has_value()) {
      EXPECT_EQ(*tn->external_src, *th->external_src) << p.ToString();
    }

    auto tt = t.session->editor->query()->TraceBack(p);
    auto tht = ht.session->editor->query()->TraceBack(p);
    ASSERT_TRUE(tt.ok());
    ASSERT_TRUE(tht.ok());
    EXPECT_EQ(tt->origin_tid, tht->origin_tid) << p.ToString();
    if (tt->external_src.has_value() && tht->external_src.has_value()) {
      EXPECT_EQ(*tt->external_src, *tht->external_src) << p.ToString();
    }
    // Cross-granularity: the external source (if any) must agree between
    // per-op and transactional tracking too — the same data flowed.
    if (tn->external_src.has_value() && tt->external_src.has_value()) {
      EXPECT_EQ(*tn->external_src, *tt->external_src) << p.ToString();
    }
  }
}

TEST_P(RandomWorkloadTest, ArchiveReconstructsEveryVersion) {
  auto [seed, pattern] = GetParam();
  auto run = RunPattern(Strategy::kNaive, pattern, seed, 60, 5);
  auto* arch = run.session->editor->archive();
  ASSERT_NE(arch, nullptr);
  // The last version equals the live universe.
  auto last = arch->GetVersion(arch->last_version());
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->Equals(run.session->editor->universe()));
  // Spot-check intermediate versions parse and are monotone in existence
  // of the target root.
  for (int64_t v = arch->base_version(); v <= arch->last_version();
       v += 13) {
    auto tree = arch->GetVersion(v);
    ASSERT_TRUE(tree.ok()) << v;
    EXPECT_NE(tree->Find(tree::Path::MustParse("T")), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPatterns, RandomWorkloadTest,
    ::testing::Combine(::testing::Values(7u, 99u, 2024u),
                       ::testing::Values(Pattern::kMix, Pattern::kReal,
                                         Pattern::kAcMix)),
    [](const ::testing::TestParamInfo<SeedPattern>& param_info) {
      std::string name =
          std::string("seed") + std::to_string(std::get<0>(param_info.param)) +
          "_" + workload::PatternName(std::get<1>(param_info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Naive provenance retains the exact update script (Section 2.1.1: "the
// exact update operation ... can be recovered from the provenance table").
TEST(RecoverabilityTest, NaiveRecordsRecoverScriptShape) {
  auto s = MakeFigureSession(Strategy::kNaive);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  auto records = testutil::DrainAll(s->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(records.ok());

  // Reconstruct per-tid ops: the root record of each tid gives the op.
  std::map<int64_t, std::vector<ProvRecord>> by_tid;
  for (const auto& r : records.value()) by_tid[r.tid].push_back(r);
  auto script = update::ParseScript(testutil::Figure3ScriptText());
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(by_tid.size(), script->size());
  size_t i = 0;
  for (const auto& [tid, recs] : by_tid) {
    (void)tid;
    const update::Update& u = (*script)[i++];
    // The minimal (shallowest) loc of the tid is the operation's root.
    const ProvRecord* root = &recs[0];
    for (const auto& r : recs) {
      if (r.loc.Depth() < root->loc.Depth()) root = &r;
    }
    EXPECT_EQ(root->loc, u.AffectedPath());
    switch (u.kind) {
      case update::OpKind::kInsert:
        EXPECT_EQ(root->op, provenance::ProvOp::kInsert);
        break;
      case update::OpKind::kDelete:
        EXPECT_EQ(root->op, provenance::ProvOp::kDelete);
        break;
      case update::OpKind::kCopy:
        EXPECT_EQ(root->op, provenance::ProvOp::kCopy);
        EXPECT_EQ(root->src, u.source);
        break;
    }
  }
}

}  // namespace
}  // namespace cpdb
