// Tests of the batched, group-committed write path: Table::InsertBatch
// mechanics, per-op-vs-batched equivalence across all four strategies,
// abort-mid-batch atomicity, and the O(1)-flush acceptance criteria
// asserted through the CostModel's write-side counters.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cpdb/cpdb.h"
#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using relstore::ColumnType;
using relstore::Datum;
using relstore::Rid;
using relstore::Row;
using relstore::Schema;
using relstore::Table;
using testutil::Session;

// ---------------------------------------------------------------------------
// Table::InsertBatch mechanics
// ---------------------------------------------------------------------------

Table MakeKvTable() {
  Table t("kv", Schema({{"K", ColumnType::kInt64, false},
                        {"V", ColumnType::kString, true}}));
  EXPECT_TRUE(t.CreateIndex("pk", {0}, /*unique=*/true).ok());
  return t;
}

/// The keys of `t`'s pk index, in index order.
std::vector<int64_t> PkKeys(const Table& t) {
  relstore::ScanSpec spec;
  spec.index = "pk";
  spec.keys_only = true;
  auto cur = t.OpenScan(std::move(spec));
  EXPECT_TRUE(cur.ok()) << cur.status();
  std::vector<int64_t> keys;
  if (!cur.ok()) return keys;
  for (Row key; cur->Next(&key);) keys.push_back(key[0].AsInt());
  return keys;
}

TEST(TableApplyBatchTest, FailedBatchLeavesTableUntouched) {
  Table t = MakeKvTable();
  ASSERT_TRUE(t.Insert(Row{Datum(int64_t{5}), Datum("keep")}).ok());

  // Duplicate unique key against the table.
  EXPECT_FALSE(t.InsertBatch({Row{Datum(int64_t{6}), Datum("a")},
                              Row{Datum(int64_t{5}), Datum("dup")}})
                   .ok());
  EXPECT_EQ(t.RowCount(), 1u);

  // Duplicate unique key within the batch.
  EXPECT_FALSE(t.InsertBatch({Row{Datum(int64_t{7}), Datum("a")},
                              Row{Datum(int64_t{7}), Datum("b")}})
                   .ok());
  EXPECT_EQ(t.RowCount(), 1u);

  // Schema violation.
  EXPECT_FALSE(t.InsertBatch({Row{Datum("not-an-int"), Datum("a")}}).ok());
  EXPECT_EQ(t.RowCount(), 1u);

  // The surviving row is still indexed.
  size_t hits = 0;
  ASSERT_TRUE(t.LookupEq("pk", Row{Datum(int64_t{5})},
                         [&](const Rid&, const Row&) {
                           ++hits;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(TableApplyBatchTest, LargeBatchMatchesPerRowInserts) {
  // The sorted-run/bulk-upsert fast path must produce the same index
  // contents as per-row insertion, into an empty table and a live one.
  Table batched = MakeKvTable();
  Table perrow = MakeKvTable();
  std::vector<Row> first, second;
  for (int64_t k = 0; k < 2000; ++k) {
    Row row{Datum((k * 7919) % 65536), Datum("v" + std::to_string(k))};
    (k < 1000 ? first : second).push_back(row);
    ASSERT_TRUE(perrow.Insert(row).ok());
  }
  ASSERT_TRUE(batched.InsertBatch(first).ok());
  ASSERT_TRUE(batched.InsertBatch(second).ok());
  EXPECT_EQ(batched.RowCount(), perrow.RowCount());
  EXPECT_EQ(PkKeys(batched), PkKeys(perrow));
}

// ---------------------------------------------------------------------------
// Per-op vs batched equivalence (property test)
// ---------------------------------------------------------------------------

struct WorkloadSession {
  std::unique_ptr<relstore::Database> prov_db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<wrap::TreeSourceDb> source;
  std::unique_ptr<Editor> editor;
};

std::unique_ptr<WorkloadSession> MakeWorkloadSession(Strategy strategy,
                                                     uint64_t seed,
                                                     bool archive) {
  auto s = std::make_unique<WorkloadSession>();
  s->prov_db = std::make_unique<relstore::Database>("provdb");
  s->backend = std::make_unique<provenance::ProvBackend>(s->prov_db.get());
  s->target = std::make_unique<wrap::TreeTargetDb>(
      "T", workload::GenMimiLike(120, seed * 31 + 1));
  s->source = std::make_unique<wrap::TreeSourceDb>(
      "S1", workload::GenOrganelleLike(240, seed * 31 + 2));
  EditorOptions opts;
  opts.strategy = strategy;
  opts.enable_archive = archive;
  opts.archive_checkpoint_every = 3;
  auto editor = Editor::Create(s->target.get(), s->backend.get(), opts);
  EXPECT_TRUE(editor.ok());
  s->editor = std::move(editor).value();
  EXPECT_TRUE(s->editor->MountSource(s->source.get()).ok());
  return s;
}

/// Generates a random script by driving session A per-op; returns the
/// applied updates so the identical twin session can replay them batched.
update::Script DriveRandomPerOp(WorkloadSession* a, uint64_t seed,
                                size_t steps) {
  workload::GenOptions gen_opts;
  gen_opts.seed = seed;
  workload::UpdateGenerator gen(&a->editor->universe(), gen_opts);
  update::Script script;
  for (size_t i = 0; i < steps; ++i) {
    bool skipped = false;
    auto u = gen.Next(&skipped);
    if (!u.has_value()) {
      if (skipped) continue;
      break;
    }
    if (!a->editor->ApplyUpdate(*u).ok()) continue;
    update::ApplyEffect effect;
    if (u->kind == update::OpKind::kInsert) {
      effect.inserted.push_back(u->AffectedPath());
    } else if (u->kind == update::OpKind::kCopy) {
      const tree::Tree* pasted = a->editor->universe().Find(u->target);
      if (pasted != nullptr) {
        pasted->Visit([&](const tree::Path& rel, const tree::Tree&) {
          effect.copied.emplace_back(u->target.Concat(rel),
                                     u->source.Concat(rel));
        });
      }
    }
    gen.OnApplied(*u, effect);
    script.push_back(*u);
  }
  return script;
}

/// Drives twin sessions through the same random workload, A one
/// ApplyUpdate at a time and B as one ApplyScript, and checks that they
/// end in the same state at no more write cost.
void ExpectPerOpAndBatchedAgree(Strategy strategy, uint64_t seed,
                                bool archive) {
  auto a = MakeWorkloadSession(strategy, seed, archive);
  auto b = MakeWorkloadSession(strategy, seed, archive);

  update::Script script = DriveRandomPerOp(a.get(), seed, 200);
  ASSERT_GT(script.size(), 20u);
  ASSERT_TRUE(a->editor->Commit().ok());
  relstore::CostSnapshot a_prov = a->prov_db->cost().Snap();
  relstore::CostSnapshot a_tgt = a->target->cost().Snap();

  size_t applied = 0;
  ASSERT_TRUE(b->editor->ApplyScript(script, &applied).ok());
  EXPECT_EQ(applied, script.size());
  ASSERT_TRUE(b->editor->Commit().ok());
  relstore::CostSnapshot b_prov = b->prov_db->cost().Snap();
  relstore::CostSnapshot b_tgt = b->target->cost().Snap();

  // Identical universe trees, native target contents, and tids.
  EXPECT_TRUE(a->editor->universe().Equals(b->editor->universe()));
  EXPECT_TRUE(a->target->content().Equals(b->target->content()));
  EXPECT_EQ(a->editor->store()->LastCommittedTid(),
            b->editor->store()->LastCommittedTid());

  // Identical provenance tables, row for row.
  auto a_recs = testutil::DrainAll(a->backend->ScanAll());
  auto b_recs = testutil::DrainAll(b->backend->ScanAll());
  ASSERT_TRUE(a_recs.ok());
  ASSERT_TRUE(b_recs.ok());
  EXPECT_EQ(a_recs.value(), b_recs.value());

  // Group commit can only reduce write round trips.
  EXPECT_LE(b_prov.write_calls, a_prov.write_calls);
  EXPECT_LE(b_tgt.write_calls, a_tgt.write_calls);
  // The batched path flushes per script/commit, not per op — archived
  // sessions included.
  EXPECT_LE(b_prov.write_calls, 1u);
  EXPECT_LE(b_tgt.write_calls, 1u);
  // Same rows move either way.
  EXPECT_EQ(b_prov.write_rows, a_prov.write_rows);

  if (!archive) return;
  // Every archived version reconstructs to the per-op twin's tree, though
  // the batched twin recorded the whole script as one run.
  const archive::VersionArchive* av = a->editor->archive();
  const archive::VersionArchive* bv = b->editor->archive();
  ASSERT_NE(av, nullptr);
  ASSERT_NE(bv, nullptr);
  ASSERT_EQ(av->base_version(), bv->base_version());
  ASSERT_EQ(av->last_version(), bv->last_version());
  for (int64_t t = av->base_version(); t <= av->last_version(); ++t) {
    auto va = av->GetVersion(t);
    auto vb = bv->GetVersion(t);
    ASSERT_TRUE(va.ok()) << t;
    ASSERT_TRUE(vb.ok()) << t;
    EXPECT_TRUE(va->Equals(*vb)) << "version " << t;
  }
}

TEST(WriteBatchEquivalenceTest, PerOpAndBatchedPathsAgreeAcrossStrategies) {
  constexpr Strategy kStrategies[] = {
      Strategy::kNaive, Strategy::kHierarchical, Strategy::kTransactional,
      Strategy::kHierarchicalTransactional};
  for (Strategy strategy : kStrategies) {
    for (uint64_t seed : {uint64_t{3}, uint64_t{17}}) {
      for (bool archive : {false, true}) {
        SCOPED_TRACE(std::string("strategy=") +
                     provenance::StrategyShortName(strategy) +
                     " seed=" + std::to_string(seed) +
                     (archive ? " archived" : ""));
        ExpectPerOpAndBatchedAgree(strategy, seed, archive);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// O(1)-flush acceptance criteria (CostModel write counters)
// ---------------------------------------------------------------------------

TEST(WriteBatchRoundTripTest, CommittedHtTransactionFlushesInOneCallEach) {
  auto s = testutil::MakeFigureSession(
      Strategy::kHierarchicalTransactional, 1, /*enable_archive=*/false);
  ASSERT_NE(s, nullptr);
  relstore::CostSnapshot prov0 = s->prov_db->cost().Snap();
  relstore::CostSnapshot tgt0 = s->target->cost().Snap();
  ASSERT_TRUE(s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  ASSERT_TRUE(s->editor->Commit().ok());
  relstore::CostSnapshot prov1 = s->prov_db->cost().Snap();
  relstore::CostSnapshot tgt1 = s->target->cost().Snap();
  // The k-op transaction reaches the provenance backend in exactly one
  // WriteRecords and the target in exactly one native write.
  EXPECT_EQ(prov1.write_calls - prov0.write_calls, 1u);
  EXPECT_EQ(tgt1.write_calls - tgt0.write_calls, 1u);
  EXPECT_GT(s->editor->store()->RecordCount(), 0u);
}

TEST(WriteBatchRoundTripTest, PerOpScriptGroupCommitsInOneCallEach) {
  for (Strategy strategy : {Strategy::kNaive, Strategy::kHierarchical}) {
    for (bool archive : {false, true}) {
      SCOPED_TRACE(std::string(provenance::StrategyShortName(strategy)) +
                   (archive ? " archived" : ""));
      auto s = testutil::MakeFigureSession(strategy, 1, archive);
      ASSERT_NE(s, nullptr);
      relstore::CostSnapshot prov0 = s->prov_db->cost().Snap();
      relstore::CostSnapshot tgt0 = s->target->cost().Snap();
      ASSERT_TRUE(
          s->editor->ApplyScriptText(testutil::Figure3ScriptText()).ok());
      relstore::CostSnapshot prov1 = s->prov_db->cost().Snap();
      relstore::CostSnapshot tgt1 = s->target->cost().Snap();
      // One group-commit WriteRecords and one target native write for the
      // whole 10-op script, even though each op kept its own tid (and,
      // archived, its own version).
      EXPECT_EQ(prov1.write_calls - prov0.write_calls, 1u);
      EXPECT_EQ(tgt1.write_calls - tgt0.write_calls, 1u);
      EXPECT_EQ(s->editor->store()->LastCommittedTid(), 10);
      if (archive) {
        ASSERT_NE(s->editor->archive(), nullptr);
        EXPECT_EQ(s->editor->archive()->last_version(), 10);
      }
    }
  }
}

TEST(WriteBatchRoundTripTest, PerOpApplyUpdateCostsOneWriteCallEach) {
  // The per-op flush shape Figures 9-10 rest on: outside a script every
  // N/H op is its own transaction, so it costs one provenance write, one
  // target write and one tid; H's inserts add their existence probe.
  auto script = update::ParseScript(testutil::Figure3ScriptText());
  ASSERT_TRUE(script.ok());
  for (Strategy strategy : {Strategy::kNaive, Strategy::kHierarchical}) {
    for (bool archive : {false, true}) {
      SCOPED_TRACE(std::string(provenance::StrategyShortName(strategy)) +
                   (archive ? " archived" : ""));
      auto s = testutil::MakeFigureSession(strategy, 1, archive);
      ASSERT_NE(s, nullptr);
      size_t probes = 0;
      for (const update::Update& u : *script) {
        SCOPED_TRACE(u.ToString());
        relstore::CostSnapshot prov0 = s->prov_db->cost().Snap();
        relstore::CostSnapshot tgt0 = s->target->cost().Snap();
        int64_t tid0 = s->editor->store()->LastCommittedTid();
        ASSERT_TRUE(s->editor->ApplyUpdate(u).ok());
        relstore::CostSnapshot prov1 = s->prov_db->cost().Snap();
        relstore::CostSnapshot tgt1 = s->target->cost().Snap();
        const bool probe = strategy == Strategy::kHierarchical &&
                           u.kind == update::OpKind::kInsert;
        probes += probe ? 1 : 0;
        EXPECT_EQ(prov1.write_calls - prov0.write_calls, 1u);
        EXPECT_EQ(tgt1.write_calls - tgt0.write_calls, 1u);
        EXPECT_EQ(prov1.calls - prov0.calls, probe ? 2u : 1u);
        EXPECT_EQ(s->editor->store()->LastCommittedTid(), tid0 + 1);
      }
      EXPECT_EQ(probes, strategy == Strategy::kHierarchical ? 4u : 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Abort-mid-batch atomicity
// ---------------------------------------------------------------------------

TEST(WriteBatchRoundTripTest, WriteRecordsChargesEachRecordsRenderedPaths) {
  relstore::Database db("provdb");
  provenance::ProvBackend backend(&db);
  const relstore::CostSnapshot c0 = db.cost().Snap();
  // Payload bytes are both rendered paths plus 16 per record:
  // 3+16, 5+16, 3+6+16 and 13+23+16, 117 bytes in all.
  ASSERT_TRUE(
      backend
          .WriteRecords(
              {ProvRecord::Insert(7, tree::Path::MustParse("T/a")),
               ProvRecord::Delete(7, tree::Path::MustParse("T/b/c")),
               ProvRecord::Copy(7, tree::Path::MustParse("T/d"),
                                tree::Path::MustParse("S1/x/y")),
               ProvRecord::Copy(8, tree::Path::MustParse("T/data/k1/f1"),
                                tree::Path::MustParse(
                                    "S1/organelle/o17/protein"))})
          .ok());
  const relstore::CostSnapshot c1 = db.cost().Snap();
  EXPECT_EQ(c1.write_calls - c0.write_calls, 1u);
  EXPECT_EQ(c1.write_rows - c0.write_rows, 4u);
  // One round trip (60) + 4 rows (4 x 10) + 117 B at 1 us per KiB.
  EXPECT_DOUBLE_EQ(c1.micros - c0.micros, 100.0 + 117.0 / 1024.0);
}

TEST(WriteBatchAbortTest, AbortDiscardsStagedBatchAtomically) {
  for (Strategy strategy : {Strategy::kTransactional,
                            Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    auto s = testutil::MakeFigureSession(strategy, 1,
                                         /*enable_archive=*/false);
    ASSERT_NE(s, nullptr);
    // A first committed transaction, so the abort must preserve history.
    ASSERT_TRUE(
        s->editor->Insert(tree::Path::MustParse("T"), "keep").ok());
    ASSERT_TRUE(s->editor->Commit().ok());

    std::string universe_before = s->editor->universe().ToString();
    std::string target_before = s->target->content().ToString();
    auto recs_before = testutil::DrainAll(s->backend->ScanAll());
    ASSERT_TRUE(recs_before.ok());
    relstore::CostSnapshot prov_before = s->prov_db->cost().Snap();
    relstore::CostSnapshot tgt_before = s->target->cost().Snap();

    // Stage a multi-op transaction, then abort it mid-batch.
    ASSERT_TRUE(
        s->editor->Insert(tree::Path::MustParse("T"), "doomed").ok());
    ASSERT_TRUE(s->editor
                    ->CopyPaste(tree::Path::MustParse("S1/a1"),
                                tree::Path::MustParse("T/doomed2"))
                    .ok());
    ASSERT_TRUE(s->editor->Delete(tree::Path::MustParse("T"), "c1").ok());
    EXPECT_GT(s->editor->PendingOps(), 0u);
    ASSERT_TRUE(s->editor->Abort().ok());

    // Nothing of the aborted transaction is observable anywhere: not in
    // the universe, not in the native target, not in the provenance
    // store, and no write round trip was charged.
    EXPECT_EQ(s->editor->universe().ToString(), universe_before);
    EXPECT_EQ(s->target->content().ToString(), target_before);
    auto recs_after = testutil::DrainAll(s->backend->ScanAll());
    ASSERT_TRUE(recs_after.ok());
    EXPECT_EQ(recs_after.value(), recs_before.value());
    EXPECT_EQ(s->prov_db->cost().Snap().write_calls,
              prov_before.write_calls);
    EXPECT_EQ(s->target->cost().Snap().write_calls, tgt_before.write_calls);
    EXPECT_EQ(s->editor->PendingOps(), 0u);

    // The session still works after the abort.
    ASSERT_TRUE(
        s->editor->Insert(tree::Path::MustParse("T"), "after").ok());
    ASSERT_TRUE(s->editor->Commit().ok());
  }
}

}  // namespace
}  // namespace cpdb
