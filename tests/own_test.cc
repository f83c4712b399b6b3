// The multi-database Own query (Section 2.2).

#include <gtest/gtest.h>

#include "cpdb/cpdb.h"
#include "test_util.h"

namespace cpdb {
namespace {

using tree::Path;

struct Db {
  std::unique_ptr<relstore::Database> prov;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<Editor> editor;
  std::vector<std::unique_ptr<wrap::TreeSourceDb>> sources;
};

std::unique_ptr<Db> MakeDb(const std::string& label) {
  auto db = std::make_unique<Db>();
  db->prov = std::make_unique<relstore::Database>(label + "_prov");
  db->backend = std::make_unique<provenance::ProvBackend>(db->prov.get());
  db->target = std::make_unique<wrap::TreeTargetDb>(label, tree::Tree());
  EditorOptions opts;
  opts.strategy = provenance::Strategy::kNaive;
  auto ed = Editor::Create(db->target.get(), db->backend.get(), opts);
  EXPECT_TRUE(ed.ok());
  db->editor = std::move(ed).value();
  return db;
}

void Mount(Db* db, const std::string& label, tree::Tree content) {
  db->sources.push_back(
      std::make_unique<wrap::TreeSourceDb>(label, std::move(content)));
  ASSERT_TRUE(db->editor->MountSource(db->sources.back().get()).ok());
}

TEST(OwnTest, ChainAcrossTwoTrackingDatabases) {
  // S (untracked) -> M (tracked) -> T (tracked).
  auto m = MakeDb("M");
  {
    auto s_content = tree::ParseTree("{p: {v: 1}}");
    Mount(m.get(), "S", std::move(s_content).value());
  }
  ASSERT_TRUE(
      m->editor->CopyPaste(Path::MustParse("S/p"), Path::MustParse("M/e"))
          .ok());

  auto t = MakeDb("T");
  Mount(t.get(), "M", m->editor->TargetView()->Clone());
  ASSERT_TRUE(
      t->editor->CopyPaste(Path::MustParse("M/e"), Path::MustParse("T/f"))
          .ok());

  query::OwnRegistry registry;
  registry.Register("T", t->editor->query());
  registry.Register("M", m->editor->query());

  auto chain = registry.OwnChain(Path::MustParse("T/f/v"));
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 3u);
  EXPECT_EQ((*chain)[0].database, "T");
  EXPECT_EQ((*chain)[1].database, "M");
  EXPECT_EQ((*chain)[2].database, "S");
  // The chain is truncated at S, which tracks no provenance.
  EXPECT_TRUE(registry.last_chain_truncated());
  EXPECT_FALSE((*chain)[2].origin_tid.has_value());
}

TEST(OwnTest, ChainEndsAtLocalInsert) {
  auto m = MakeDb("M");
  {
    auto none = tree::ParseTree("{}");
    Mount(m.get(), "S", std::move(none).value());
  }
  ASSERT_TRUE(m->editor
                  ->Insert(Path::MustParse("M"), "e",
                           tree::Value(int64_t{42}))
                  .ok());

  auto t = MakeDb("T");
  Mount(t.get(), "M", m->editor->TargetView()->Clone());
  ASSERT_TRUE(
      t->editor->CopyPaste(Path::MustParse("M/e"), Path::MustParse("T/f"))
          .ok());

  query::OwnRegistry registry;
  registry.Register("T", t->editor->query());
  registry.Register("M", m->editor->query());
  auto chain = registry.OwnChain(Path::MustParse("T/f"));
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_FALSE(registry.last_chain_truncated());
  ASSERT_TRUE((*chain)[1].origin_tid.has_value());  // entered in M
  EXPECT_EQ((*chain)[1].database, "M");
}

TEST(OwnTest, UnregisteredStartingDatabase) {
  query::OwnRegistry registry;
  auto chain = registry.OwnChain(Path::MustParse("X/a"));
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_EQ((*chain)[0].database, "X");
  EXPECT_TRUE(registry.last_chain_truncated());
}

TEST(OwnTest, PartialReconstructionOfLostSource) {
  // Section 5's "data availability" scenario: two databases copied from a
  // source S that later disappears; their provenance stores identify
  // which S locations the surviving copies came from, partially
  // reconstructing S.
  auto s_content = tree::ParseTree("{p1: {v: 10}, p2: {v: 20}}");
  auto t1 = MakeDb("T1");
  Mount(t1.get(), "S", s_content->Clone());
  auto t2 = MakeDb("T2");
  Mount(t2.get(), "S", s_content->Clone());
  ASSERT_TRUE(t1->editor
                  ->CopyPaste(Path::MustParse("S/p1"),
                              Path::MustParse("T1/a"))
                  .ok());
  ASSERT_TRUE(t2->editor
                  ->CopyPaste(Path::MustParse("S/p2"),
                              Path::MustParse("T2/b"))
                  .ok());

  // "S disappears": reconstruct what we can from T1+T2 provenance.
  tree::Tree reconstructed;
  for (Db* db : {t1.get(), t2.get()}) {
    auto records =
        testutil::DrainAll(db->editor->store()->backend()->ScanAll());
    ASSERT_TRUE(records.ok());
    for (const auto& r : *records) {
      if (r.op != provenance::ProvOp::kCopy) continue;
      if (r.src.IsRoot() || r.src.At(0) != "S") continue;
      const tree::Tree* data = db->editor->universe().Find(r.loc);
      if (data == nullptr) continue;
      // Plant the copied data back at its source location.
      tree::Tree* cur = &reconstructed;
      for (size_t d = 1; d + 1 < r.src.Depth(); ++d) {
        if (cur->GetChild(r.src.At(d)) == nullptr) {
          ASSERT_TRUE(cur->AddChild(r.src.At(d), tree::Tree()).ok());
        }
        cur = cur->GetChild(r.src.At(d));
      }
      cur->PutChild(r.src.Leaf(), data->Clone());
    }
  }
  // Both entries recovered with their values.
  EXPECT_EQ(reconstructed.Find(Path::MustParse("p1/v"))->value().AsInt(),
            10);
  EXPECT_EQ(reconstructed.Find(Path::MustParse("p2/v"))->value().AsInt(),
            20);
}

}  // namespace
}  // namespace cpdb
