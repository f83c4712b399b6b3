#include <functional>

#include <gtest/gtest.h>

#include "cpdb/cpdb.h"
#include "test_util.h"

namespace cpdb::wrap {
namespace {

using relstore::ColumnType;
using relstore::Datum;
using tree::Path;
using update::Update;

/// Mirrors one update into the native store as a batch of one.
Status Push(TargetDb* target, Update u,
            const tree::Tree* pasted = nullptr) {
  return target->ApplyBatch({NativeOp{std::move(u), pasted}});
}

relstore::Database MakeSourceDb() {
  relstore::Database db("organelledb");
  auto table = workload::FillOrganelleRelational(&db, 5, 3);
  EXPECT_TRUE(table.ok());
  return db;
}

TEST(TreeSourceDbTest, CopyNodeExportsSubtree) {
  auto content = tree::ParseTree("{a1: {x: 1, y: {z: 2}}}");
  TreeSourceDb src("S1", std::move(content).value());
  auto nodes = src.CopyNode(Path::MustParse("a1"));
  ASSERT_TRUE(nodes.ok());
  // Preorder, root first: a1, a1/x, a1/y, a1/y/z.
  ASSERT_EQ(nodes->size(), 4u);
  EXPECT_EQ((*nodes)[0].path.ToString(), "a1");
  EXPECT_FALSE((*nodes)[0].value.has_value());
  EXPECT_EQ((*nodes)[1].path.ToString(), "a1/x");
  EXPECT_EQ((*nodes)[1].value->AsInt(), 1);
  EXPECT_EQ((*nodes)[3].path.ToString(), "a1/y/z");
  // A leaf yields a single-element list (Figure 6).
  auto leaf = src.CopyNode(Path::MustParse("a1/x"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf->size(), 1u);
  EXPECT_TRUE(src.CopyNode(Path::MustParse("zz")).status().IsNotFound());
}

TEST(RelationalSourceDbTest, KeyedViewUsesFourLevelPaths) {
  relstore::Database db = MakeSourceDb();
  RelationalSourceDb src("S1", &db, {"organelle"});
  auto view = src.TreeFromDb();
  ASSERT_TRUE(view.ok());
  // DB/R/tid/F addressing: organelle table, tuple o1, field organelle.
  const tree::Tree* field =
      view->Find(Path::MustParse("organelle/o1/organelle"));
  ASSERT_NE(field, nullptr);
  EXPECT_TRUE(field->HasValue());
  // All five tuples exposed, each with three non-key fields.
  const tree::Tree* rel = view->Find(Path::MustParse("organelle"));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->ChildCount(), 5u);
  EXPECT_EQ(rel->GetChild("o1")->ChildCount(), 3u);
}

TEST(RelationalSourceDbTest, ChargesCostPerCall) {
  relstore::Database db = MakeSourceDb();
  RelationalSourceDb src("S1", &db, {"organelle"});
  double before = db.cost().ElapsedMicros();
  ASSERT_TRUE(src.TreeFromDb().ok());
  EXPECT_GT(db.cost().ElapsedMicros(), before);
}

TEST(RelationalTargetDbTest, AtomicUpdatesMapToRowOperations) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true},
                           {"loc", ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&db, "prot", schema).ok());
  RelationalTargetDb target("T", &db, {"prot"});

  // ins {p1 : {}} into prot  -> fresh tuple.
  ASSERT_TRUE(
      Push(&target, Update::Insert(Path::MustParse("prot"), "p1")).ok());
  // ins {name : "ABC1"} into prot/p1 -> set the NULL field.
  ASSERT_TRUE(Push(&target, Update::Insert(Path::MustParse("prot/p1"), "name",
                                           tree::Value("ABC1")))
                  .ok());
  // Setting it again must fail (duplicate edge in tree terms).
  EXPECT_TRUE(Push(&target, Update::Insert(Path::MustParse("prot/p1"), "name",
                                           tree::Value("X")))
                  .IsAlreadyExists());
  // copy into prot/p1/loc -> field update from a pasted leaf.
  tree::Tree leaf{tree::Value("membrane")};
  ASSERT_TRUE(
      Push(&target, Update::Copy(Path(), Path::MustParse("prot/p1/loc")), &leaf)
          .ok());
  // Read back through the tree view.
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/name"))->value().AsString(),
            "ABC1");
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/loc"))->value().AsString(),
            "membrane");
  // del name from prot/p1 -> NULLed field disappears from the view? No:
  // NULL fields render as null leaves; the tuple keeps its arity.
  ASSERT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("prot/p1"), "name")).ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(
      view->Find(Path::MustParse("prot/p1/name"))->value().is_null());
  // del p1 from prot -> tuple gone.
  ASSERT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("prot"), "p1")).ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1")), nullptr);
}

TEST(RelationalTargetDbTest, WholeTupleUpsertFromPaste) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true},
                           {"loc", ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&db, "prot", schema).ok());
  RelationalTargetDb target("T", &db, {"prot"});

  auto tuple = tree::ParseTree("{name: CRP, loc: plasma}");
  ASSERT_TRUE(Push(&target, Update::Copy(Path(), Path::MustParse("prot/p7")),
                   &tuple.value())
                  .ok());
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p7/name"))->value().AsString(),
            "CRP");
}

TEST(RelationalTargetDbTest, SchemaMismatchesAreRejected) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&db, "prot", schema).ok());
  RelationalTargetDb target("T", &db, {"prot"});
  // Unknown table.
  EXPECT_FALSE(
      Push(&target, Update::Insert(Path::MustParse("genes"), "g1")).ok());
  // Too-deep nesting.
  EXPECT_FALSE(
      Push(&target, Update::Insert(Path::MustParse("prot/p1/name"), "sub"))
          .ok());
  // Unknown column.
  ASSERT_TRUE(
      Push(&target, Update::Insert(Path::MustParse("prot"), "p1")).ok());
  EXPECT_FALSE(Push(&target, Update::Insert(Path::MustParse("prot/p1"), "color",
                                            tree::Value("red")))
                   .ok());
}

TEST(RelationalTargetDbTest, IntKeyedTupleIsAddressedByItsRendering) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kInt64, false},
                           {"name", ColumnType::kString, true},
                           {"loc", ColumnType::kString, true}});
  auto table = testutil::CreateKeyedTable(&db, "gene", schema);
  ASSERT_TRUE(table.ok());
  RelationalTargetDb target("T", &db, {"gene"});
  auto row42 = [&]() -> relstore::Row {
    relstore::Row found;
    EXPECT_TRUE((*table)
                    ->LookupEq("pk_id", {Datum(int64_t{42})},
                               [&](const relstore::Rid&,
                                   const relstore::Row& row) {
                                 found = row;
                                 return false;
                               })
                    .ok());
    return found;
  };

  ASSERT_TRUE(
      Push(&target, Update::Insert(Path::MustParse("gene"), "42")).ok());
  ASSERT_EQ(row42().size(), 3u);
  EXPECT_EQ(row42()[0], Datum(int64_t{42}));
  // A label that parses to 42 but is not its rendering names no tuple.
  EXPECT_TRUE(Push(&target, Update::Insert(Path::MustParse("gene/042"),
                                           "name", tree::Value("X")))
                  .IsNotFound());
  ASSERT_TRUE(Push(&target, Update::Insert(Path::MustParse("gene/42"), "name",
                                           tree::Value("ABC1")))
                  .ok());
  tree::Tree leaf{tree::Value("membrane")};
  EXPECT_TRUE(
      Push(&target, Update::Copy(Path(), Path::MustParse("gene/042/loc")),
           &leaf)
          .IsNotFound());
  ASSERT_TRUE(
      Push(&target, Update::Copy(Path(), Path::MustParse("gene/42/loc")),
           &leaf)
          .ok());
  EXPECT_EQ(row42()[1], Datum("ABC1"));
  EXPECT_EQ(row42()[2], Datum("membrane"));
  EXPECT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("gene/042"), "name"))
          .IsNotFound());
  ASSERT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("gene/42"), "name")).ok());
  EXPECT_TRUE(row42()[1].is_null());
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("gene/42/loc"))->value().AsString(),
            "membrane");
  EXPECT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("gene"), "042"))
          .IsNotFound());
  ASSERT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("gene"), "42")).ok());
  EXPECT_EQ((*table)->RowCount(), 0u);
}

TEST(RelationalTargetDbTest, WrappedTableWithoutKeyIndexIsRejected) {
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true}});
  // No index at all, and two near misses: an index that is not unique,
  // and one whose key is more than column 0.
  const std::vector<std::function<Status(relstore::Table*)>> near_misses = {
      [](relstore::Table*) { return Status::OK(); },
      [](relstore::Table* t) { return t->CreateIndex("by_id", {0}); },
      [](relstore::Table* t) {
        return t->CreateIndex("by_id", {0, 1}, /*unique=*/true);
      },
  };
  for (size_t i = 0; i < near_misses.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    relstore::Database db("targetdb");
    auto table = db.CreateTable("prot", schema);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(near_misses[i](*table).ok());
    RelationalTargetDb target("T", &db, {"prot"});
    Status checked = target.CheckKeyIndexes();
    EXPECT_TRUE(checked.IsFailedPrecondition()) << checked;
    EXPECT_NE(checked.message().find("'prot'"), std::string::npos)
        << checked;
    EXPECT_TRUE(target.TreeFromDb().status().IsFailedPrecondition());
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    EXPECT_TRUE(Editor::Create(&target, &backend, EditorOptions{})
                    .status()
                    .IsFailedPrecondition());
  }
}

TEST(EndToEndTest, RelationalSourceFeedsTreeTarget) {
  // The paper's actual deployment shape: relational source (OrganelleDB
  // on MySQL) wrapped as a tree, native-tree target (MiMI on Timber).
  relstore::Database source_db = MakeSourceDb();
  RelationalSourceDb source("S1", &source_db, {"organelle"});
  TreeTargetDb target("T", tree::Tree());
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);

  auto editor = Editor::Create(&target, &backend, EditorOptions{});
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE((*editor)->MountSource(&source).ok());
  ASSERT_TRUE((*editor)
                  ->CopyPaste(Path::MustParse("S1/organelle/o2"),
                              Path::MustParse("T/entry1"))
                  .ok());
  ASSERT_TRUE((*editor)->Commit().ok());
  EXPECT_TRUE(
      (*editor)->universe().Contains(Path::MustParse("T/entry1/protein")));
  auto trace =
      (*editor)->query()->TraceBack(Path::MustParse("T/entry1/protein"));
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->external_src.has_value());
  EXPECT_EQ(trace->external_src->ToString(), "S1/organelle/o2/protein");
}

}  // namespace
}  // namespace cpdb::wrap
