// QueryEngine::GetMod at scale, for all four storage strategies, against
// a brute-force oracle (satellite of the cursor-API redesign).
//
// A >=10k-node MiMI-like target takes a randomized update script; then
// GetMod is probed across the final tree and checked two ways:
//
//  - results: against an oracle computed WITHOUT the query path. For the
//    strategies whose reads involve inference (N, H, HT) the oracle is
//    the hierarchical expansion of the stored table (ExpandToFull over
//    the archive's version trees) filtered to the probe's subtree; for
//    the flat transactional store the oracle is a linear filter over the
//    full table (its documented GetMod contract: explicit records under
//    p, no inference).
//
//  - round trips: via CostModel counters. The redesigned read path must
//    issue O(depth + 1) backend round trips — one batched ancestor
//    statement plus ceil(rows/batch) fetches of ONE subtree scan — and
//    never the per-descendant O(n) of the pre-cursor path.
//
// A second leg probes GetMod without version trees, the call the server
// and the benches make, which reads tids straight off the (Loc, Tid)
// index keys: its answers must equal the tids of the stored records at or
// under p (plus, for the hierarchical strategies, at p's ancestors), and
// its CostModel charge must equal whole-record reads of the same two
// statements.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace cpdb {
namespace {

using provenance::ProvCursor;
using provenance::ProvRecord;
using provenance::Strategy;
using tree::Path;

constexpr size_t kTargetEntries = 1200;  // >= 10k nodes (see assertion)
constexpr size_t kSteps = 300;
constexpr size_t kTxnLen = 5;

std::unique_ptr<testutil::Session> RunScaleSession(Strategy strategy) {
  auto s = std::make_unique<testutil::Session>();
  s->prov_db = std::make_unique<relstore::Database>("provdb");
  s->backend = std::make_unique<provenance::ProvBackend>(s->prov_db.get());
  s->target = std::make_unique<wrap::TreeTargetDb>(
      "T", workload::GenMimiLike(kTargetEntries, /*seed=*/91));
  s->s1 = std::make_unique<wrap::TreeSourceDb>(
      "S1", workload::GenOrganelleLike(800, /*seed=*/92));
  EditorOptions opts;
  opts.strategy = strategy;
  opts.enable_archive = true;  // the oracle replays version trees
  opts.archive_checkpoint_every = 8;
  auto editor = Editor::Create(s->target.get(), s->backend.get(), opts);
  EXPECT_TRUE(editor.ok());
  s->editor = std::move(editor).value();
  EXPECT_TRUE(s->editor->MountSource(s->s1.get()).ok());

  workload::GenOptions gen;
  gen.pattern = workload::Pattern::kMix;
  gen.seed = 1337;
  size_t applied = testutil::RunRandomWorkload(s.get(), gen, kSteps, kTxnLen);
  EXPECT_GT(applied, kSteps / 2);
  return s;
}

/// Probe locations: the target root, every depth-2 entry of a sample, and
/// a spread of random deeper paths from the final tree.
std::vector<Path> ProbeLocs(const testutil::Session& s) {
  std::vector<Path> all;
  const tree::Tree* target = s.editor->TargetView();
  target->Visit([&](const Path& rel, const tree::Tree&) {
    if (!rel.IsRoot()) {
      all.push_back(Path({std::string("T")}).Concat(rel));
    }
  });
  EXPECT_GE(all.size(), 10000u) << "target did not reach 10k nodes";
  std::vector<Path> probes;
  if (all.empty()) return probes;  // EXPECT above already flagged it
  probes.push_back(Path::MustParse("T"));
  size_t stride = std::max<size_t>(1, all.size() / 8);
  for (size_t i = 0; i < all.size() && probes.size() < 9; i += stride) {
    if (all[i].Depth() == 2) probes.push_back(all[i]);
  }
  Rng rng(17);
  for (size_t i = 0; i < 24; ++i) {
    probes.push_back(all[rng.NextIndex(all.size())]);
  }
  return probes;
}

std::vector<int64_t> TidsUnder(const std::vector<ProvRecord>& records,
                               const Path& p) {
  std::set<int64_t> tids;
  for (const ProvRecord& r : records) {
    if (p.IsPrefixOf(r.loc)) tids.insert(r.tid);
  }
  return std::vector<int64_t>(tids.begin(), tids.end());
}

void CheckStrategy(Strategy strategy) {
  SCOPED_TRACE(provenance::StrategyName(strategy));
  auto s = RunScaleSession(strategy);
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->editor->store()->RecordCount(), 100u);

  auto stored = testutil::DrainAll(s->backend->ScanAll());
  ASSERT_TRUE(stored.ok());
  auto versions = s->editor->archive()->MakeVersionFn();

  // Oracle basis: the expanded (naive-equivalent) table for the inferring
  // strategies, the raw table for the flat transactional store.
  std::vector<ProvRecord> basis;
  if (strategy == Strategy::kTransactional) {
    basis = *stored;
  } else {
    auto expanded = provenance::ExpandToFull(*stored, versions);
    ASSERT_TRUE(expanded.ok()) << expanded.status();
    basis = std::move(expanded).value();
  }

  bool hierarchical = s->editor->store()->IsHierarchical();
  for (const Path& p : ProbeLocs(*s)) {
    SCOPED_TRACE(p.ToString());
    relstore::CostSnapshot before = s->prov_db->cost().Snap();
    auto mod = s->editor->query()->GetMod(p, versions);
    relstore::CostSnapshot after = s->prov_db->cost().Snap();
    ASSERT_TRUE(mod.ok()) << mod.status();

    // ----- results vs brute force -----
    EXPECT_EQ(*mod, TidsUnder(basis, p));

    // ----- round trips: O(depth + 1), not O(descendants) -----
    size_t rows_under = 0;
    std::set<std::string> locs_under;
    for (const ProvRecord& r : *stored) {
      if (p.IsPrefixOf(r.loc)) {
        ++rows_under;
        locs_under.insert(r.loc.ToString());
      }
    }
    size_t scan_trips =
        std::max<size_t>(1, (rows_under + ProvCursor::kDefaultBatch - 1) /
                                ProvCursor::kDefaultBatch);
    size_t ancestor_trips = (hierarchical && p.Depth() > 2) ? 1 : 0;
    size_t calls = after.calls - before.calls;
    // +1 slack: a scan whose row count is an exact batch multiple needs
    // one extra (empty) fetch to observe the end of the stream.
    EXPECT_LE(calls, scan_trips + ancestor_trips + 1);
    // The pre-redesign path paid one trip per descendant location (plus
    // one per ancestor level); on populous subtrees the cursor path must
    // be strictly cheaper.
    if (locs_under.size() > 8) {
      EXPECT_LT(calls, 1 + locs_under.size());
    }

    // ----- versions-free GetMod: tid-only reads -----
    relstore::CostSnapshot bare_before = s->prov_db->cost().Snap();
    auto bare = s->editor->query()->GetMod(p);
    relstore::CostSnapshot bare_after = s->prov_db->cost().Snap();
    ASSERT_TRUE(bare.ok()) << bare.status();
    std::set<int64_t> want;
    for (const ProvRecord& r : *stored) {
      bool proper_ancestor =
          r.loc.IsPrefixOf(p) && r.loc != p && r.loc.Depth() >= 2;
      if (p.IsPrefixOf(r.loc) || (hierarchical && proper_ancestor)) {
        want.insert(r.tid);
      }
    }
    EXPECT_EQ(*bare, std::vector<int64_t>(want.begin(), want.end()));

    relstore::CostSnapshot drain_before = s->prov_db->cost().Snap();
    ProvRecord rec;
    ProvCursor under = s->backend->ScanUnder(p);
    while (under.Next(&rec)) {
    }
    ASSERT_TRUE(under.status().ok()) << under.status();
    if (hierarchical) {
      ProvCursor above =
          s->backend->ScanAtLocOrAncestors(p, /*include_self=*/false);
      while (above.Next(&rec)) {
      }
      ASSERT_TRUE(above.status().ok()) << above.status();
    }
    relstore::CostSnapshot drain_after = s->prov_db->cost().Snap();
    EXPECT_EQ(bare_after.calls - bare_before.calls,
              drain_after.calls - drain_before.calls);
    EXPECT_EQ(bare_after.rows - bare_before.rows,
              drain_after.rows - drain_before.rows);
  }
}

TEST(GetModScaleTest, Naive) { CheckStrategy(Strategy::kNaive); }
TEST(GetModScaleTest, Hierarchical) {
  CheckStrategy(Strategy::kHierarchical);
}
TEST(GetModScaleTest, Transactional) {
  CheckStrategy(Strategy::kTransactional);
}
TEST(GetModScaleTest, HierarchicalTransactional) {
  CheckStrategy(Strategy::kHierarchicalTransactional);
}

}  // namespace
}  // namespace cpdb
