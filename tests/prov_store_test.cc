// Strategy-level unit tests driving the ProvStore implementations
// directly with hand-built effects — edge cases of the provlist
// (net-effect) semantics and of the hierarchical inferability checks.

#include <gtest/gtest.h>

#include "provenance/hier_store.h"
#include "provenance/naive_store.h"
#include "provenance/txn_store.h"
#include "relstore/database.h"
#include "test_util.h"

namespace cpdb::provenance {
namespace {

using tree::Path;
using update::ApplyEffect;

Path P(const std::string& s) { return Path::MustParse(s); }

// One-op batches for TrackBatch, built from hand-made effects.

std::vector<TrackedOp> InsertOp(const std::string& p) {
  ApplyEffect e;
  e.inserted.push_back(P(p));
  return {{update::OpKind::kInsert, std::move(e)}};
}

std::vector<TrackedOp> DeleteOp(std::vector<std::string> paths) {
  ApplyEffect e;
  for (const auto& p : paths) e.deleted.push_back(P(p));
  return {{update::OpKind::kDelete, std::move(e)}};
}

std::vector<TrackedOp> CopyOp(
    std::vector<std::pair<std::string, std::string>> c,
    std::vector<std::string> overwritten = {}) {
  ApplyEffect e;
  for (const auto& [loc, src] : c) e.copied.emplace_back(P(loc), P(src));
  for (const auto& o : overwritten) e.overwritten.push_back(P(o));
  e.overwrote = !e.overwritten.empty();
  return {{update::OpKind::kCopy, std::move(e)}};
}

struct Fixture {
  relstore::Database db{"provdb"};
  ProvBackend backend{&db};
};

TEST(TxnStoreTest, InsertThenDeleteCancels) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  EXPECT_EQ(store.PendingCount(), 1u);
  ASSERT_TRUE(store.TrackBatch(DeleteOp({"T/a"})).ok());
  EXPECT_EQ(store.PendingCount(), 0u);
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.RecordCount(), 0u);
}

TEST(TxnStoreTest, DeleteThenReinsertBecomesInsert) {
  // Content at the location was replaced: the {Tid, Loc} key admits one
  // record, and the net effect is recorded as I.
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  ASSERT_TRUE(store.TrackBatch(DeleteOp({"T/a"})).ok());
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  ASSERT_TRUE(store.Commit().ok());
  auto records = testutil::DrainAll(store.backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].op, ProvOp::kInsert);
  EXPECT_EQ((*records)[0].loc, P("T/a"));
}

TEST(TxnStoreTest, DeleteOfPreexistingChildrenSurvivesReinsertOfRoot) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  // Delete a pre-existing subtree {a, a/x}; re-insert only the root.
  ASSERT_TRUE(store.TrackBatch(DeleteOp({"T/a", "T/a/x"})).ok());
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  ASSERT_TRUE(store.Commit().ok());
  auto records = testutil::DrainAll(store.backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  // a: net replaced (I); a/x: net deleted (D).
  EXPECT_EQ((*records)[0].loc, P("T/a"));
  EXPECT_EQ((*records)[0].op, ProvOp::kInsert);
  EXPECT_EQ((*records)[1].loc, P("T/a/x"));
  EXPECT_EQ((*records)[1].op, ProvOp::kDelete);
}

TEST(TxnStoreTest, CopyOverwriteDropsOverwrittenLinks) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  ASSERT_TRUE(store
                  .TrackBatch(CopyOp(
                      {{"T/e", "S1/a"}, {"T/e/x", "S1/a/x"}}))
                  .ok());
  EXPECT_EQ(store.PendingCount(), 2u);
  // Overwrite with a copy from S2 whose shape differs.
  ASSERT_TRUE(store
                  .TrackBatch(CopyOp({{"T/e", "S2/b"},
                                      {"T/e/y", "S2/b/y"}},
                                     {"T/e", "T/e/x"}))
                  .ok());
  ASSERT_TRUE(store.Commit().ok());
  auto records = testutil::DrainAll(store.backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  for (const auto& r : *records) {
    EXPECT_EQ(r.src.At(0), "S2") << r.ToString();
  }
}

TEST(TxnStoreTest, CopyDataThenDeleteWithinTxnLeavesNothing) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  ASSERT_TRUE(store
                  .TrackBatch(CopyOp(
                      {{"T/e", "S1/a"}, {"T/e/x", "S1/a/x"}}))
                  .ok());
  ASSERT_TRUE(store.TrackBatch(DeleteOp({"T/e", "T/e/x"})).ok());
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.RecordCount(), 0u);
}

TEST(TxnStoreTest, EmptyCommitAdvancesTidWithoutRoundTrip) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  size_t calls_before = fx.db.cost().Calls();
  ASSERT_TRUE(store.Commit().ok());
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(fx.db.cost().Calls(), calls_before);
  EXPECT_EQ(store.LastCommittedTid(), 2);
}

TEST(TxnStoreTest, AbortDiscardsPending) {
  Fixture fx;
  TxnStore store(&fx.backend, TxnStoreOptions{});
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  EXPECT_EQ(store.PendingCount(), 1u);
  store.AbortPending();
  EXPECT_EQ(store.PendingCount(), 0u);
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.RecordCount(), 0u);
}

TEST(HtStoreTest, InsertUnderSameTxnInsertIsInferable) {
  Fixture fx;
  TxnStoreOptions opts;
  opts.hierarchical = true;
  TxnStore store(&fx.backend, opts);
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a/b")).ok());
  // b is inferable from a's insert; only one record pending.
  EXPECT_EQ(store.PendingCount(), 1u);
  // But an insert under a *copied* node is NOT inferable (Fig 5(d)'s
  // "121 I T/c4/y").
  ASSERT_TRUE(store
                  .TrackBatch(CopyOp({{"T/c", "S1/a"}}))
                  .ok());
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/c/y")).ok());
  EXPECT_EQ(store.PendingCount(), 3u);
}

TEST(HtStoreTest, HierarchicalDeleteStoresOnlyRoot) {
  Fixture fx;
  TxnStoreOptions opts;
  opts.hierarchical = true;
  TxnStore store(&fx.backend, opts);
  ASSERT_TRUE(
      store.TrackBatch(DeleteOp({"T/a", "T/a/x", "T/a/y"})).ok());
  ASSERT_TRUE(store.Commit().ok());
  auto records = testutil::DrainAll(store.backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].op, ProvOp::kDelete);
  EXPECT_EQ((*records)[0].loc, P("T/a"));
}

TEST(NaiveStoreTest, PerOpTransactionNumbers) {
  Fixture fx;
  NaiveStore store(&fx.backend, /*first_tid=*/121);
  ASSERT_TRUE(store.TrackBatch(InsertOp("T/a")).ok());
  ASSERT_TRUE(store.TrackBatch(DeleteOp({"T/b", "T/b/x"})).ok());
  auto records = testutil::DrainAll(store.backend()->ScanAll());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].tid, 121);
  EXPECT_EQ((*records)[1].tid, 122);  // both delete rows share tid 122
  EXPECT_EQ((*records)[2].tid, 122);
  EXPECT_EQ(store.LastCommittedTid(), 122);
}

TEST(HierStoreTest, InsertProbeCostsARoundTrip) {
  Fixture fx;
  HierStore hier(&fx.backend);
  size_t calls0 = fx.db.cost().Calls();
  ASSERT_TRUE(hier.TrackBatch(InsertOp("T/a")).ok());
  size_t insert_calls = fx.db.cost().Calls() - calls0;

  relstore::Database db2("provdb2");
  ProvBackend backend2(&db2);
  NaiveStore naive(&backend2);
  size_t calls1 = db2.cost().Calls();
  ASSERT_TRUE(naive.TrackBatch(InsertOp("T/a")).ok());
  size_t naive_calls = db2.cost().Calls() - calls1;

  // The hierarchical insert issues the existence probe + the write; the
  // naive insert only the write (Figure 10's H-add penalty).
  EXPECT_EQ(insert_calls, naive_calls + 1);
}

TEST(BackendTest, TidLocKeyEnforced) {
  Fixture fx;
  ASSERT_TRUE(
      fx.backend.WriteRecords({ProvRecord::Insert(1, P("T/a"))}).ok());
  // Same {Tid, Loc} again: the unique index refuses.
  EXPECT_FALSE(
      fx.backend.WriteRecords({ProvRecord::Delete(1, P("T/a"))}).ok());
  // Different tid: fine.
  EXPECT_TRUE(
      fx.backend.WriteRecords({ProvRecord::Delete(2, P("T/a"))}).ok());
}

TEST(BackendTest, GetUnderIsPathAware) {
  Fixture fx;
  ASSERT_TRUE(fx.backend
                  .WriteRecords({ProvRecord::Insert(1, P("T/c1")),
                                 ProvRecord::Insert(2, P("T/c1/x")),
                                 ProvRecord::Insert(3, P("T/c10")),
                                 ProvRecord::Insert(4, P("T/c2"))})
                  .ok());
  auto under = testutil::DrainAll(fx.backend.ScanUnder(P("T/c1")));
  ASSERT_TRUE(under.ok());
  ASSERT_EQ(under->size(), 2u);  // c1 and c1/x, NOT c10
  EXPECT_EQ((*under)[0].loc, P("T/c1"));
  EXPECT_EQ((*under)[1].loc, P("T/c1/x"));
}

TEST(BackendTest, GetAtLocOrAncestorsWalksUp) {
  Fixture fx;
  ASSERT_TRUE(fx.backend
                  .WriteRecords({ProvRecord::Copy(1, P("T/a"), P("S/x")),
                                 ProvRecord::Insert(2, P("T/a/b/c")),
                                 ProvRecord::Insert(3, P("T/zz"))})
                  .ok());
  size_t calls0 = fx.db.cost().Calls();
  auto recs = testutil::DrainAll(
      fx.backend.ScanAtLocOrAncestors(P("T/a/b/c"), /*include_self=*/true));
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(fx.db.cost().Calls() - calls0, 1u);  // ONE client call
  ASSERT_EQ(recs->size(), 2u);  // T/a and T/a/b/c, not T/zz
}

// Regression for the documented ordering contract: ScanAll yields
// (tid, loc) order whether drained in one fetch or streamed record by
// record, and the Loc-side cursors yield (loc, tid) order.
TEST(BackendTest, GetAllIsTidLocOrderedAndCursorsAgree) {
  Fixture fx;
  // Written deliberately out of (tid, loc) order.
  ASSERT_TRUE(fx.backend
                  .WriteRecords({ProvRecord::Insert(3, P("T/b")),
                                 ProvRecord::Insert(1, P("T/c")),
                                 ProvRecord::Insert(2, P("T/a/x")),
                                 ProvRecord::Insert(1, P("T/a")),
                                 ProvRecord::Insert(2, P("T/a")),
                                 ProvRecord::Insert(3, P("T/a/x"))})
                  .ok());
  auto all = testutil::DrainAll(fx.backend.ScanAll());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 6u);
  for (size_t i = 0; i + 1 < all->size(); ++i) {
    const ProvRecord& a = (*all)[i];
    const ProvRecord& b = (*all)[i + 1];
    // Loc ordering is the index's: the slash-joined string rendering.
    EXPECT_TRUE(a.tid < b.tid ||
                (a.tid == b.tid && a.loc.ToString() < b.loc.ToString()))
        << a.ToString() << " !< " << b.ToString();
  }
  // ScanAll streams the identical sequence.
  std::vector<ProvRecord> streamed;
  ProvCursor cur = fx.backend.ScanAll();
  ProvRecord r;
  while (cur.Next(&r)) streamed.push_back(r);
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(streamed, *all);
  // ScanUnder is (Loc, Tid)-ordered.
  std::vector<std::pair<std::string, int64_t>> under;
  ProvCursor uc = fx.backend.ScanUnder(P("T/a"));
  while (uc.Next(&r)) under.emplace_back(r.loc.ToString(), r.tid);
  EXPECT_EQ(under, (std::vector<std::pair<std::string, int64_t>>{
                       {"T/a", 1}, {"T/a", 2}, {"T/a/x", 2}, {"T/a/x", 3}}));
}

TEST(BackendTest, CursorChargesOneRoundTripPerBatchFetched) {
  Fixture fx;
  std::vector<ProvRecord> recs;
  for (int i = 0; i < 10; ++i) {
    recs.push_back(ProvRecord::Insert(1, P("T/n" + std::to_string(i))));
  }
  ASSERT_TRUE(fx.backend.WriteRecords(recs).ok());

  // Drained in one big fetch: one round trip.
  size_t calls0 = fx.db.cost().Calls();
  ProvCursor one = fx.backend.ScanAll();
  std::vector<ProvRecord> batch;
  EXPECT_EQ(one.Next(&batch, ProvCursor::kNoLimit), 10u);
  EXPECT_EQ(fx.db.cost().Calls() - calls0, 1u);
  EXPECT_EQ(one.RoundTrips(), 1u);

  // Streamed in batches of 4: 3 fetches (4 + 4 + 2).
  calls0 = fx.db.cost().Calls();
  ProvCursor many = fx.backend.ScanAll();
  size_t total = 0;
  while (many.Next(&batch, 4) > 0) total += batch.size();
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(fx.db.cost().Calls() - calls0, 3u);
  EXPECT_EQ(many.RoundTrips(), 3u);
}

TEST(BackendTest, LookupManyResolvesBatchInOneRoundTrip) {
  Fixture fx;
  ASSERT_TRUE(fx.backend
                  .WriteRecords({ProvRecord::Insert(1, P("T/a")),
                                 ProvRecord::Copy(1, P("T/b"), P("S/q")),
                                 ProvRecord::Insert(2, P("T/a"))})
                  .ok());
  size_t calls0 = fx.db.cost().Calls();
  auto got = fx.backend.LookupMany(
      1, {P("T/a"), P("T/b"), P("T/missing")});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(fx.db.cost().Calls() - calls0, 1u);
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].loc, P("T/a"));
  EXPECT_EQ((*got)[1].loc, P("T/b"));
  // An empty batch is an empty statement: nothing sent, nothing charged.
  calls0 = fx.db.cost().Calls();
  auto none = fx.backend.LookupMany(1, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(fx.db.cost().Calls() - calls0, 0u);
}

TEST(BackendTest, AncestorScanExcludesSelfWhenAsked) {
  Fixture fx;
  ASSERT_TRUE(fx.backend
                  .WriteRecords({ProvRecord::Copy(1, P("T/a"), P("S/x")),
                                 ProvRecord::Insert(2, P("T/a/b")),
                                 ProvRecord::Insert(3, P("T/a/b/c"))})
                  .ok());
  std::vector<std::string> locs;
  ProvCursor cur =
      fx.backend.ScanAtLocOrAncestors(P("T/a/b/c"), /*include_self=*/false);
  ProvRecord r;
  while (cur.Next(&r)) locs.push_back(r.loc.ToString());
  // Shallowest first, self excluded.
  EXPECT_EQ(locs, (std::vector<std::string>{"T/a", "T/a/b"}));
}

}  // namespace
}  // namespace cpdb::provenance
