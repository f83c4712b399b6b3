#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpdb/cpdb.h"
#include "test_util.h"

namespace cpdb::wrap {
namespace {

using relstore::ColumnType;
using relstore::Datum;
using tree::Path;
using update::Update;

/// Checks a batch and writes it, as the editor's seal does.
Status Replay(TargetDb* target, const std::vector<NativeOp>& ops) {
  CPDB_ASSIGN_OR_RETURN(NativeWrite write, target->Prepare(ops));
  return write();
}

/// Mirrors one update into the native store as a batch of one.
Status Push(TargetDb* target, Update u,
            const tree::Tree* pasted = nullptr) {
  return Replay(target, {NativeOp{std::move(u), pasted}});
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

TEST(RelationalSourceDbTest, DuplicateTupleIdentifierIsRefused) {
  relstore::Database db("dupdb");
  // No unique index on the identifier, so the table lets it repeat.
  auto table = db.CreateTable(
      "r", relstore::Schema({{"id", ColumnType::kString, false},
                             {"v", ColumnType::kInt64, true}}));
  ASSERT_TRUE(table.ok());
  for (const char* id : {"k3", "k1", "k2", "k1"}) {
    ASSERT_TRUE((*table)->Insert({Datum(id), Datum(int64_t{1})}).ok());
  }
  RelationalSourceDb src("S", &db, {"r"});
  auto view = src.TreeFromDb();
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsInvalidArgument()) << view.status();
  EXPECT_EQ(view.status().message(),
            "table 'r' has duplicate tuple identifier: k1");
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
  // del name from prot/p1 -> the NULLed field disappears from the view,
  // as the edge does from the tree.
  ASSERT_TRUE(
      Push(&target, Update::Delete(Path::MustParse("prot/p1"), "name")).ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/name")), nullptr);
  EXPECT_NE(view->Find(Path::MustParse("prot/p1/loc")), nullptr);
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

  // A paste over an existing tuple replaces it, as the pasted subtree
  // replaces the node in the universe: a column the subtree lacks is
  // NULL, an absent field, not its old value.
  auto partial = tree::ParseTree("{loc: nucleus}");
  ASSERT_TRUE(Push(&target, Update::Copy(Path(), Path::MustParse("prot/p7")),
                   &partial.value())
                  .ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p7/name")), nullptr);
  EXPECT_EQ(view->Find(Path::MustParse("prot/p7/loc"))->value().AsString(),
            "nucleus");
  EXPECT_EQ(view->Find(Path::MustParse("prot"))->ChildCount(), 1u);
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

TEST(RelationalTargetDbTest, RewriteThatFailsValidationKeepsTheTuple) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, false},
                           {"loc", ColumnType::kString, true}});
  auto table = testutil::CreateKeyedTable(&db, "prot", schema);
  ASSERT_TRUE(table.ok());
  RelationalTargetDb target("T", &db, {"prot"});
  auto tuple = tree::ParseTree("{name: CRP}");
  ASSERT_TRUE(Push(&target, Update::Copy(Path(), Path::MustParse("prot/p1")),
                   &tuple.value())
                  .ok());

  Status cleared =
      Push(&target, Update::Delete(Path::MustParse("prot/p1"), "name"));
  EXPECT_TRUE(cleared.IsInvalidArgument()) << cleared;
  EXPECT_EQ(cleared.message(), "NULL in non-nullable column 'name'");
  // A batch with a failing op writes none of its ops, not even the ones
  // before the failing one.
  tree::Tree leaf{tree::Value("membrane")};
  Status batch = Replay(
      &target,
      {NativeOp{Update::Copy(Path(), Path::MustParse("prot/p1/loc")), &leaf},
       NativeOp{Update::Delete(Path::MustParse("prot/p1"), "name")}});
  EXPECT_TRUE(batch.IsInvalidArgument()) << batch;

  // A row image past one heap page is refused before the stored row is
  // deleted: alone, and in a batch after an op the table accepts.
  tree::Tree huge{tree::Value(std::string(5000, 'x'))};
  Status oversize = Push(
      &target, Update::Copy(Path(), Path::MustParse("prot/p1/loc")), &huge);
  EXPECT_TRUE(oversize.IsInvalidArgument()) << oversize;
  EXPECT_EQ(oversize.message(), "record larger than page");
  EXPECT_EQ((*table)->RowCount(), 1u);
  tree::Tree cytoplasm{tree::Value("cytoplasm")};
  Status oversize_batch = Replay(
      &target, {NativeOp{Update::Copy(Path(), Path::MustParse("prot/p1/loc")),
                         &cytoplasm},
                NativeOp{Update::Copy(Path(), Path::MustParse("prot/p1/name")),
                         &huge}});
  EXPECT_TRUE(oversize_batch.IsInvalidArgument()) << oversize_batch;
  EXPECT_EQ(oversize_batch.message(), "record larger than page");

  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  const tree::Tree* name = view->Find(Path::MustParse("prot/p1/name"));
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->value().AsString(), "CRP");
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/loc")), nullptr);
}

TEST(RelationalTargetDbTest, FieldWithoutDataValueIsRefused) {
  // A NULL column reads back as no field, so a write that would store one
  // for a field the update names keeps its edge only in the tree that
  // staged it. Every shape is refused, and the tuple keeps its row.
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"f1", ColumnType::kString, true},
                           {"f2", ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&db, "data", schema).ok());
  RelationalTargetDb target("T", &db, {"data"});
  const Path row = Path::MustParse("data/k1");
  ASSERT_TRUE(Push(&target, Update::Insert(row.Parent(), "k1")).ok());
  ASSERT_TRUE(Push(&target, Update::Insert(row, "f2", tree::Value("b"))).ok());
  auto stored = target.TreeFromDb();
  ASSERT_TRUE(stored.ok());

  tree::Tree null_leaf{tree::Value()};
  tree::Tree empty;
  auto subtree = tree::ParseTree("{x: 1}");
  auto null_child = tree::ParseTree("{f1: null, f2: b}");
  auto empty_child = tree::ParseTree("{f1: {}, f2: b}");
  ASSERT_TRUE(subtree.ok() && null_child.ok() && empty_child.ok());
  const Path f1 = row.Child("f1");
  const std::vector<NativeOp> refused = {
      {Update::Insert(row, "f1", tree::Value())},
      {Update::Insert(row, "f1")},
      {Update::Copy(Path(), f1), &null_leaf},
      {Update::Copy(Path(), f1), &empty},
      {Update::Copy(Path(), f1), &subtree.value()},
      {Update::Copy(Path(), row), &null_child.value()},
      {Update::Copy(Path(), row), &empty_child.value()},
  };
  for (const NativeOp& op : refused) {
    SCOPED_TRACE(op.update.ToString());
    Status st = Replay(&target, {op});
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_EQ(st.message(),
              "field 'f1' needs a non-null data value: a NULL column reads "
              "back as no field");
    auto now = target.TreeFromDb();
    ASSERT_TRUE(now.ok());
    EXPECT_TRUE(now->Equals(*stored)) << now->ToString();
  }
  // A data value sets the field.
  ASSERT_TRUE(Push(&target, Update::Insert(row, "f1", tree::Value("x"))).ok());
}

TEST(RelationalTargetDbTest, NanIdentifierIsRefused) {
  // NaN is neither less nor greater than any DOUBLE: a key index holding
  // one would take every later identifier for a duplicate of it.
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kDouble, false},
                           {"w", ColumnType::kString, true}});
  auto table = testutil::CreateKeyedTable(&db, "m", schema);
  ASSERT_TRUE(table.ok());
  RelationalTargetDb target("T", &db, {"m"});
  for (const std::string label : {"nan", "-nan", "NAN"}) {
    Status refused = Push(&target, Update::Insert(Path::MustParse("m"), label));
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused;
    EXPECT_EQ(refused.message(),
              "tuple id '" + label + "' is not a valid DOUBLE identifier");
    // Nor does a NaN label name a tuple.
    EXPECT_TRUE(
        Push(&target, Update::Delete(Path::MustParse("m"), label))
            .IsNotFound());
  }
  ASSERT_TRUE(Push(&target, Update::Insert(Path::MustParse("m"), "5")).ok());
  ASSERT_TRUE(Push(&target, Update::Insert(Path::MustParse("m"), "7.5")).ok());
  ASSERT_TRUE(Push(&target, Update::Insert(Path::MustParse("m"), "inf")).ok());
  EXPECT_EQ((*table)->RowCount(), 3u);
}

// ----- Net-effect replay -----------------------------------------------------

/// Counts the row images a table reports to its journal.
class CountingJournal : public relstore::Journal {
 public:
  void NoteCreateTable(const std::string&, const relstore::Schema&) override {}
  void NoteDropTable(const std::string&) override {}
  void NoteCreateIndex(const std::string&,
                       const relstore::IndexDef&) override {}
  void NoteInsert(const std::string&, const relstore::Row&) override {
    ++inserts;
  }
  void NoteDelete(const std::string&, const relstore::Row&) override {
    ++deletes;
  }

  int inserts = 0;
  int deletes = 0;
};

TEST(RelationalTargetDbTest, BatchJournalsOnlyItsNetEffect) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true},
                           {"loc", ColumnType::kString, true}});
  auto table = testutil::CreateKeyedTable(&db, "prot", schema);
  ASSERT_TRUE(table.ok());
  RelationalTargetDb target("T", &db, {"prot"});
  ASSERT_TRUE(
      Push(&target, Update::Insert(Path::MustParse("prot"), "p1")).ok());
  CountingJournal journal;
  (*table)->set_journal(&journal);

  // Eight field ops on one stored tuple: one delete image, one insert.
  const Path p1 = Path::MustParse("prot/p1");
  tree::Tree membrane{tree::Value("membrane")};
  tree::Tree crp{tree::Value("CRP")};
  ASSERT_TRUE(Replay(&target,
                     {
                         NativeOp{Update::Insert(p1, "name", tree::Value("A"))},
                         NativeOp{Update::Delete(p1, "name")},
                         NativeOp{Update::Insert(p1, "name", tree::Value("B"))},
                         NativeOp{Update::Copy(Path(), p1.Child("loc")),
                                  &membrane},
                         NativeOp{Update::Delete(p1, "loc")},
                         NativeOp{Update::Insert(p1, "loc", tree::Value("C"))},
                         NativeOp{Update::Copy(Path(), p1.Child("name")), &crp},
                         NativeOp{Update::Delete(p1, "loc")},
                     })
                  .ok());
  EXPECT_EQ(journal.deletes, 1);
  EXPECT_EQ(journal.inserts, 1);
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(p1.Child("name"))->value().AsString(), "CRP");
  EXPECT_EQ(view->Find(p1.Child("loc")), nullptr);

  // A tuple inserted and deleted in one batch journals nothing.
  journal = CountingJournal();
  ASSERT_TRUE(
      Replay(&target,
             {
                 NativeOp{Update::Insert(Path::MustParse("prot"), "p2")},
                 NativeOp{Update::Insert(Path::MustParse("prot/p2"), "name",
                                         tree::Value("tmp"))},
                 NativeOp{Update::Delete(Path::MustParse("prot"), "p2")},
             })
          .ok());
  // A field set and then cleared journals nothing.
  ASSERT_TRUE(Replay(&target,
                     {
                         NativeOp{Update::Insert(p1, "loc", tree::Value("X"))},
                         NativeOp{Update::Delete(p1, "loc")},
                     })
                  .ok());
  EXPECT_EQ(journal.deletes, 0);
  EXPECT_EQ(journal.inserts, 0);
  EXPECT_EQ((*table)->RowCount(), 1u);
  (*table)->set_journal(nullptr);
}

TEST(RelationalTargetDbTest, NegativeZeroOverZeroIsRewritten) {
  // Datum's == calls 0.0 and -0.0 equal, yet they render differently, so
  // the write compares row bytes: pasting -0.0 over 0.0 is a change.
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"w", ColumnType::kDouble, true}});
  auto table = testutil::CreateKeyedTable(&db, "m", schema);
  ASSERT_TRUE(table.ok());
  RelationalTargetDb target("T", &db, {"m"});
  const Path m1 = Path::MustParse("m/m1");
  ASSERT_TRUE(
      Replay(&target, {NativeOp{Update::Insert(Path::MustParse("m"), "m1")},
                       NativeOp{Update::Insert(m1, "w", tree::Value(0.0))}})
          .ok());
  tree::Tree negative_zero{tree::Value(-0.0)};
  ASSERT_TRUE(
      Push(&target, Update::Copy(Path(), m1.Child("w")), &negative_zero).ok());
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(m1.Child("w"))->value().ToString(), "-0");
}

/// The two tables the replay property runs over: one string-keyed with
/// nullable fields, one int64-keyed with a non-nullable field and an int
/// field. Each carries only its key index, as every wrapped table does.
Status CreateReplayTables(relstore::Database* db) {
  relstore::Schema s({{"id", ColumnType::kString, false},
                      {"a", ColumnType::kString, true},
                      {"b", ColumnType::kString, true}});
  relstore::Schema g({{"id", ColumnType::kInt64, false},
                      {"name", ColumnType::kString, false},
                      {"n", ColumnType::kInt64, true}});
  CPDB_RETURN_IF_ERROR(testutil::CreateKeyedTable(db, "s", s).status());
  CPDB_RETURN_IF_ERROR(testutil::CreateKeyedTable(db, "g", g).status());
  return db->Sync();
}

/// Every row of `table`, in key order.
std::vector<relstore::Row> RowsOf(relstore::Database* db,
                                  const std::string& table) {
  std::vector<relstore::Row> rows;
  auto t = db->GetTable(table);
  EXPECT_TRUE(t.ok());
  (*t)->Scan([&](const relstore::Rid&, const relstore::Row& row) {
    rows.push_back(row);
    return true;
  });
  std::sort(rows.begin(), rows.end(), relstore::RowLess);
  return rows;
}

/// A seeded stream of updates over the replay tables, each drawn against
/// the rows a database holds when it is drawn: an op that succeeds there,
/// or, when asked, one of the shapes that must fail.
class ReplayOpGen {
 public:
  explicit ReplayOpGen(uint32_t seed) : rng_(seed) {}

  NativeOp Next(relstore::Database* db, bool must_fail) {
    const bool g = Pick(2) == 0;
    const std::string rel = g ? "g" : "s";
    const std::vector<std::string> fields =
        g ? std::vector<std::string>{"name", "n"}
          : std::vector<std::string>{"a", "b"};
    const std::vector<relstore::Row> rows = RowsOf(db, rel);
    std::vector<std::string> absent;
    for (int i = 0; i < 4; ++i) {
      std::string label = (g ? "" : "k") + std::to_string(i);
      bool held = false;
      for (const relstore::Row& row : rows) held |= row[0].ToString() == label;
      if (!held) absent.push_back(label);
    }
    const relstore::Row* row =
        rows.empty() ? nullptr : &rows[Pick(rows.size())];
    const std::string label =
        row != nullptr ? (*row)[0].ToString() : absent[Pick(absent.size())];
    if (must_fail) return MustFail(g, rel, fields, row, absent);

    const std::string fresh =
        absent.empty() ? label : absent[Pick(absent.size())];
    const Path tuple = Path::MustParse(rel).Child(label);
    size_t shape = Pick(6);
    if (row == nullptr) shape = 0;  // only a new tuple succeeds
    switch (shape) {
      case 0:  // a new tuple: ins {tid : {}} into R (g's NULL name would
               // fail it, so g gets a whole-tuple paste).
        if (!absent.empty() && !g) {
          return {Update::Insert(Path::MustParse(rel), fresh)};
        }
        return PasteTuple(g, rel, fields, fresh, /*with_name=*/true);
      case 1:  // ins {F : v} into R/tid on a NULL field, else a paste.
        for (size_t col : {size_t{1}, size_t{2}}) {
          if ((*row)[col].is_null()) {
            return {Update::Insert(tuple, fields[col - 1],
                                   ValueFor(fields[col - 1]))};
          }
        }
        return PasteLeaf(tuple.Child(fields[1]), ValueFor(fields[1]));
      case 2:  // del tid from R.
        return {Update::Delete(Path::MustParse(rel), label)};
      case 3:  // del F from R/tid (g's name cannot be NULL).
        return {Update::Delete(tuple, g ? "n" : fields[Pick(2)])};
      case 4:  // copy ... into R/tid, over a stored tuple.
        return PasteTuple(g, rel, fields, label, /*with_name=*/true);
      default: {  // copy ... into R/tid/F.
        const std::string& field = fields[Pick(2)];
        return PasteLeaf(tuple.Child(field), ValueFor(field));
      }
    }
  }

 private:
  size_t Pick(size_t n) { return rng_() % n; }

  tree::Value ValueFor(const std::string& field) {
    if (field == "n") return tree::Value(static_cast<int64_t>(Pick(10)));
    return tree::Value(std::string(1, static_cast<char>('x' + Pick(3))));
  }

  NativeOp PasteLeaf(Path target, tree::Value v) {
    pasted_.emplace_back(std::move(v));
    return {Update::Copy(Path(), std::move(target)), &pasted_.back()};
  }

  /// A whole-tuple paste of a random subset of `fields` (g's name kept
  /// when `with_name`), with an unknown column when `unknown`.
  NativeOp PasteTuple(bool g, const std::string& rel,
                      const std::vector<std::string>& fields,
                      const std::string& label, bool with_name,
                      bool unknown = false) {
    tree::Tree subtree;
    for (const std::string& f : fields) {
      const bool keep = (g && f == "name") ? with_name : Pick(2) == 0;
      if (!keep) continue;
      EXPECT_TRUE(subtree.AddChild(f, tree::Tree(ValueFor(f))).ok());
    }
    if (unknown) {
      EXPECT_TRUE(subtree.AddChild("zz", tree::Tree(tree::Value("q"))).ok());
    }
    pasted_.push_back(std::move(subtree));
    return {Update::Copy(Path(), Path::MustParse(rel).Child(label)),
            &pasted_.back()};
  }

  /// One of the shapes that must fail. Those that need a stored tuple of
  /// `rel` are drawn only when `row` is one; those that need g's
  /// non-nullable name or int column, only on g.
  NativeOp MustFail(bool g, const std::string& rel,
                    const std::vector<std::string>& fields,
                    const relstore::Row* row,
                    const std::vector<std::string>& absent) {
    const Path table = Path::MustParse(rel);
    const std::string missing =
        absent.empty() ? (g ? "9" : "k9") : absent[0];
    if (row == nullptr || Pick(3) == 0) {
      switch (Pick(5)) {
        case 0:  // missing tuple.
          return {Update::Delete(table.Child(missing), fields[1])};
        case 1:  // an int64 label that does not parse.
          return {Update::Insert(Path::MustParse("g"), "q")};
        case 2:  // unknown table.
          return {Update::Insert(Path::MustParse("zz"), "k0")};
        case 3:  // a tuple node carrying a value.
          return {Update::Insert(table, missing, tree::Value("v"))};
        default:  // a path deeper than R/tid/F.
          return {Update::Insert(table.Child(missing).Child(fields[1]),
                                 "sub")};
      }
    }
    const std::string label = (*row)[0].ToString();
    const Path tuple = table.Child(label);
    switch (Pick(g ? 6 : 3)) {
      case 0:  // duplicate tuple: s by its label, g by a label that parses
               // to the same identifier ("03" parses to 3).
        if (g) return PasteTuple(true, rel, fields, "0" + label, true);
        return {Update::Insert(table, label)};
      case 1:  // field already set (g's name always is).
        for (size_t col : {size_t{1}, size_t{2}}) {
          if (!(*row)[col].is_null()) {
            return {Update::Insert(tuple, fields[col - 1],
                                   ValueFor(fields[col - 1]))};
          }
        }
        return {Update::Insert(tuple, "zz", tree::Value("q"))};
      case 2:  // unknown column, by insert or by a whole-tuple paste.
        if (Pick(2) == 0) {
          return {Update::Insert(tuple, "zz", tree::Value("q"))};
        }
        return PasteTuple(g, rel, fields, label, true, /*unknown=*/true);
      case 3:  // an int64 label that is not the identifier's rendering.
        if (Pick(2) == 0) {
          return PasteLeaf(table.Child("0" + label).Child("n"),
                           tree::Value(int64_t{1}));
        }
        return {Update::Delete(table, "0" + label)};
      case 4:  // NULL into g's non-nullable name, three ways.
        switch (Pick(3)) {
          case 0:
            return {Update::Delete(tuple, "name")};
          case 1:
            return PasteLeaf(tuple.Child("name"), tree::Value());
          default:
            return PasteTuple(true, rel, fields, label, /*with_name=*/false);
        }
      default:  // a value that does not fit the int column.
        return PasteLeaf(tuple.Child("n"), tree::Value("x"));
    }
  }

  std::mt19937 rng_;
  /// Owns every pasted subtree: an op borrows its subtree until replayed.
  std::deque<tree::Tree> pasted_;
};

/// Replaces every row of `table` by `rows`.
void ResetRows(relstore::Database* db, const std::string& table,
               const std::vector<relstore::Row>& rows) {
  auto t = db->GetTable(table);
  ASSERT_TRUE(t.ok());
  std::vector<relstore::Rid> rids;
  (*t)->Scan([&](const relstore::Rid& rid, const relstore::Row&) {
    rids.push_back(rid);
    return true;
  });
  for (const relstore::Rid& rid : rids) ASSERT_TRUE((*t)->Delete(rid).ok());
  for (const relstore::Row& row : rows) {
    ASSERT_TRUE((*t)->Insert(row).ok());
  }
}

TEST(RelationalTargetDbTest, FoldedReplayEqualsOpByOpReplay) {
  // Database `folded` replays each sequence as one batch; `stepped` as one
  // batch per op, stopping at the first failure. A passing sequence leaves
  // both with the same rows; a failing one fails with the same error and
  // leaves the folded rows as they were, and `stepped` is put back to
  // them. Both are durable, synced after every sequence, and recovered
  // from their logs at the end.
  testutil::TempDir folded_dir("replay_folded");
  testutil::TempDir stepped_dir("replay_stepped");
  auto folded_db = relstore::Database::Open("curated", folded_dir.path());
  auto stepped_db = relstore::Database::Open("curated", stepped_dir.path());
  ASSERT_TRUE(folded_db.ok() && stepped_db.ok());
  ASSERT_TRUE(CreateReplayTables(folded_db->get()).ok());
  ASSERT_TRUE(CreateReplayTables(stepped_db->get()).ok());
  RelationalTargetDb folded("T", folded_db->get(), {"s", "g"});
  RelationalTargetDb stepped("T", stepped_db->get(), {"s", "g"});

  ReplayOpGen gen(20061);
  std::set<std::string> failures;
  for (int seq = 0; seq < 300; ++seq) {
    SCOPED_TRACE("sequence " + std::to_string(seq));
    std::vector<NativeOp> ops;
    Status one_by_one;
    const std::vector<relstore::Row> s_before = RowsOf(stepped_db->get(), "s");
    const std::vector<relstore::Row> g_before = RowsOf(stepped_db->get(), "g");
    const size_t length = 1 + seq % 12;
    // One sequence in three carries an op that must fail, somewhere.
    const size_t fail_at = seq % 3 == 0 ? (seq / 3) % length : length;
    for (size_t i = 0; i < length; ++i) {
      ops.push_back(gen.Next(stepped_db->get(), i == fail_at));
      if (one_by_one.ok()) one_by_one = Replay(&stepped, {ops.back()});
    }
    Status batch = Replay(&folded, ops);
    EXPECT_EQ(batch.code(), one_by_one.code()) << batch << " vs " << one_by_one;
    EXPECT_EQ(batch.message(), one_by_one.message());
    if (!batch.ok()) {
      failures.insert(batch.message());
      ResetRows(stepped_db->get(), "s", s_before);
      ResetRows(stepped_db->get(), "g", g_before);
    }
    ASSERT_TRUE((*folded_db)->Sync().ok());
    ASSERT_TRUE((*stepped_db)->Sync().ok());
    for (const char* rel : {"s", "g"}) {
      ASSERT_EQ(RowsOf(folded_db->get(), rel), RowsOf(stepped_db->get(), rel))
          << rel;
    }
  }

  // Every failure shape came up: the property covered them all.
  for (const char* shape :
       {"duplicate key", "already set", "no tuple", "no column",
        "is not a valid INT64", "NULL in non-nullable", "does not fit",
        "not exposed", "cannot carry", "supports only"}) {
    bool seen = false;
    for (const std::string& message : failures) {
      seen |= message.find(shape) != std::string::npos;
    }
    EXPECT_TRUE(seen) << shape;
  }

  // Recovered from the log alone (no checkpoint was written), the folded
  // database's net row images rebuild the rows op-by-op replay left.
  const std::vector<relstore::Row> s_rows = RowsOf(stepped_db->get(), "s");
  const std::vector<relstore::Row> g_rows = RowsOf(stepped_db->get(), "g");
  EXPECT_FALSE(s_rows.empty());
  EXPECT_FALSE(g_rows.empty());
  for (auto* db : {&folded_db, &stepped_db}) {
    const std::string dir =
        db == &folded_db ? folded_dir.path() : stepped_dir.path();
    db->value().reset();  // a crash: no Close, no checkpoint
    *db = relstore::Database::Open("curated", dir);
    ASSERT_TRUE(db->ok());
    EXPECT_FALSE((**db)->durability()->stats().snapshot_loaded);
    EXPECT_EQ(RowsOf(db->value().get(), "s"), s_rows);
    EXPECT_EQ(RowsOf(db->value().get(), "g"), g_rows);
    EXPECT_TRUE((**db)->Close().ok());
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
