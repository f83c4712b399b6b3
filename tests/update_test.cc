#include "update/semantics.h"

#include <gtest/gtest.h>

#include "tree/serialize.h"
#include "update/parser.h"
#include "update/update.h"

namespace cpdb::update {
namespace {

tree::Tree T(const std::string& literal) {
  auto r = tree::ParseTree(literal);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

tree::Path P(const std::string& s) { return tree::Path::MustParse(s); }

// ----- Semantics of the three atomic operations ---------------------------

TEST(SemanticsTest, InsertEmptyTree) {
  tree::Tree u = T("{T: {}}");
  ApplyEffect effect;
  ASSERT_TRUE(Apply(&u, Update::Insert(P("T"), "c2"), &effect).ok());
  EXPECT_TRUE(u.Contains(P("T/c2")));
  EXPECT_TRUE(u.Find(P("T/c2"))->IsEmpty());
  ASSERT_EQ(effect.inserted.size(), 1u);
  EXPECT_EQ(effect.inserted[0], P("T/c2"));
}

TEST(SemanticsTest, InsertValue) {
  tree::Tree u = T("{T: {c4: {}}}");
  ASSERT_TRUE(
      Apply(&u, Update::Insert(P("T/c4"), "y", tree::Value(int64_t{12})))
          .ok());
  EXPECT_EQ(u.Find(P("T/c4/y"))->value().AsInt(), 12);
}

TEST(SemanticsTest, InsertFailsOnMissingPath) {
  tree::Tree u = T("{T: {}}");
  Status st = Apply(&u, Update::Insert(P("T/zz"), "a"));
  EXPECT_TRUE(st.IsNotFound());
}

TEST(SemanticsTest, InsertFailsOnDuplicateEdge) {
  // "t ] t' fails if there are any shared edge names" (Section 2).
  tree::Tree u = T("{T: {a: 1}}");
  Status st = Apply(&u, Update::Insert(P("T"), "a"));
  EXPECT_TRUE(st.IsAlreadyExists());
  EXPECT_EQ(u.Find(P("T/a"))->value().AsInt(), 1);  // unchanged
}

TEST(SemanticsTest, DeleteRemovesSubtree) {
  tree::Tree u = T("{T: {c5: {x: 9, y: 7}}}");
  ApplyEffect effect;
  ASSERT_TRUE(Apply(&u, Update::Delete(P("T"), "c5"), &effect).ok());
  EXPECT_FALSE(u.Contains(P("T/c5")));
  // Effect lists the whole removed subtree in preorder, root first.
  ASSERT_EQ(effect.deleted.size(), 3u);
  EXPECT_EQ(effect.deleted[0], P("T/c5"));
  EXPECT_EQ(effect.deleted[1], P("T/c5/x"));
  EXPECT_EQ(effect.deleted[2], P("T/c5/y"));
}

TEST(SemanticsTest, DeleteFailsIfEdgeAbsent) {
  tree::Tree u = T("{T: {}}");
  EXPECT_TRUE(Apply(&u, Update::Delete(P("T"), "zz")).IsNotFound());
}

TEST(SemanticsTest, CopyIntoFreshEdge) {
  tree::Tree u = T("{S1: {a3: {x: 7, y: 6}}, T: {}}");
  ApplyEffect effect;
  ASSERT_TRUE(Apply(&u, Update::Copy(P("S1/a3"), P("T/c3")), &effect).ok());
  EXPECT_TRUE(u.Find(P("T/c3"))->Equals(*u.Find(P("S1/a3"))));
  EXPECT_FALSE(effect.overwrote);
  ASSERT_EQ(effect.copied.size(), 3u);
  EXPECT_EQ(effect.copied[0].first, P("T/c3"));
  EXPECT_EQ(effect.copied[0].second, P("S1/a3"));
  EXPECT_EQ(effect.copied[1].first, P("T/c3/x"));
  EXPECT_EQ(effect.copied[2].second, P("S1/a3/y"));
}

TEST(SemanticsTest, CopyOverwritesExistingSubtree) {
  tree::Tree u = T("{S1: {a1: {y: 3}}, T: {c1: {y: 2, z: 1}}}");
  ApplyEffect effect;
  ASSERT_TRUE(Apply(&u, Update::Copy(P("S1/a1"), P("T/c1")), &effect).ok());
  EXPECT_TRUE(effect.overwrote);
  // The old subtree {c1, c1/y, c1/z} is reported for provlist pruning.
  ASSERT_EQ(effect.overwritten.size(), 3u);
  EXPECT_EQ(effect.overwritten[0], P("T/c1"));
  // The destination is now exactly the source (z is gone).
  EXPECT_FALSE(u.Contains(P("T/c1/z")));
  EXPECT_EQ(u.Find(P("T/c1/y"))->value().AsInt(), 3);
}

TEST(SemanticsTest, CopyIsDeep) {
  tree::Tree u = T("{S1: {a: {x: 1}}, T: {}}");
  ASSERT_TRUE(Apply(&u, Update::Copy(P("S1/a"), P("T/b"))).ok());
  // Mutating the copy must not affect the source.
  ASSERT_TRUE(u.Find(P("T/b"))->RemoveChild("x").ok());
  EXPECT_TRUE(u.Contains(P("S1/a/x")));
}

TEST(SemanticsTest, SelfCopyWithinTarget) {
  tree::Tree u = T("{T: {a: {x: 1}, b: {}}}");
  ASSERT_TRUE(Apply(&u, Update::Copy(P("T/a"), P("T/b"))).ok());
  EXPECT_EQ(u.Find(P("T/b/x"))->value().AsInt(), 1);
}

TEST(SemanticsTest, CopyIntoOwnDescendant) {
  // copy T/a into T/a/b must clone first (t.q evaluated before t[p:=...]).
  tree::Tree u = T("{T: {a: {b: {}}}}");
  ASSERT_TRUE(Apply(&u, Update::Copy(P("T/a"), P("T/a/b"))).ok());
  EXPECT_TRUE(u.Contains(P("T/a/b/b")));
  EXPECT_FALSE(u.Contains(P("T/a/b/b/b")));  // not infinite
}

TEST(SemanticsTest, CopyFailsOnMissingSource) {
  tree::Tree u = T("{T: {}}");
  EXPECT_TRUE(Apply(&u, Update::Copy(P("S1/zz"), P("T/a"))).IsNotFound());
}

TEST(SemanticsTest, CopyFailsOnMissingDestinationParent) {
  tree::Tree u = T("{S1: {a: 1}, T: {}}");
  EXPECT_TRUE(
      Apply(&u, Update::Copy(P("S1/a"), P("T/zz/deep"))).IsNotFound());
}

TEST(SemanticsTest, SequenceComposition) {
  // [[U; U']] = [[U']] o [[U]].
  tree::Tree u1 = T("{T: {}}");
  Script script = {Update::Insert(P("T"), "a"),
                   Update::Insert(P("T/a"), "b", tree::Value(int64_t{1}))};
  ASSERT_TRUE(ApplySequence(&u1, script).ok());

  tree::Tree u2 = T("{T: {}}");
  ASSERT_TRUE(Apply(&u2, script[0]).ok());
  ASSERT_TRUE(Apply(&u2, script[1]).ok());
  EXPECT_TRUE(u1.Equals(u2));
}

TEST(SemanticsTest, SequenceStopsAtFirstFailure) {
  tree::Tree u = T("{T: {}}");
  Script script = {Update::Insert(P("T"), "a"),
                   Update::Delete(P("T"), "zz"),  // fails
                   Update::Insert(P("T"), "b")};
  size_t failed_at = 0;
  Status st = ApplySequence(&u, script, &failed_at);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(failed_at, 1u);
  EXPECT_TRUE(u.Contains(P("T/a")));   // first op applied
  EXPECT_FALSE(u.Contains(P("T/b")));  // third never ran
}

// ----- Undo log -----------------------------------------------------------

TEST(UndoLogTest, RevertsInsertDeleteCopy) {
  tree::Tree u = T("{S: {a: {x: 5}}, T: {c: {y: 1}}}");
  tree::Tree before = u.Clone();
  UndoLog undo;
  ASSERT_TRUE(undo.ApplyTracked(&u, Update::Insert(P("T"), "n")).ok());
  ASSERT_TRUE(undo.ApplyTracked(&u, Update::Delete(P("T/c"), "y")).ok());
  ASSERT_TRUE(undo.ApplyTracked(&u, Update::Copy(P("S/a"), P("T/c"))).ok());
  ASSERT_TRUE(undo.ApplyTracked(&u, Update::Copy(P("S/a"), P("T/f"))).ok());
  EXPECT_FALSE(u.Equals(before));
  ASSERT_TRUE(undo.RevertAll(&u).ok());
  EXPECT_TRUE(u.Equals(before));
  EXPECT_TRUE(undo.empty());
}

TEST(UndoLogTest, FailedOpLeavesLogUnchanged) {
  tree::Tree u = T("{T: {}}");
  UndoLog undo;
  EXPECT_FALSE(undo.ApplyTracked(&u, Update::Delete(P("T"), "zz")).ok());
  EXPECT_TRUE(undo.empty());
}

// ----- Textual rendering / parsing ----------------------------------------

TEST(UpdateTest, ToStringMatchesPaperSyntax) {
  EXPECT_EQ(Update::Insert(P("T"), "c2").ToString(),
            "insert {c2 : {}} into T");
  EXPECT_EQ(
      Update::Insert(P("T/c4"), "y", tree::Value(int64_t{12})).ToString(),
      "insert {y : 12} into T/c4");
  EXPECT_EQ(Update::Delete(P("T"), "c5").ToString(), "delete c5 from T");
  EXPECT_EQ(Update::Copy(P("S1/a1/y"), P("T/c1/y")).ToString(),
            "copy S1/a1/y into T/c1/y");
}

TEST(ParserTest, ParsesAllVerbForms) {
  auto u1 = ParseUpdate("insert {c2 : {}} into T");
  ASSERT_TRUE(u1.ok());
  EXPECT_EQ(*u1, Update::Insert(P("T"), "c2"));

  auto u2 = ParseUpdate("ins {y : 12} into T/c4");
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(*u2, Update::Insert(P("T/c4"), "y", tree::Value(int64_t{12})));

  auto u3 = ParseUpdate("del c5 from T");
  ASSERT_TRUE(u3.ok());
  EXPECT_EQ(*u3, Update::Delete(P("T"), "c5"));

  auto u4 = ParseUpdate("copy S1/a1/y into T/c1/y");
  ASSERT_TRUE(u4.ok());
  EXPECT_EQ(*u4, Update::Copy(P("S1/a1/y"), P("T/c1/y")));
}

TEST(ParserTest, StringPayload) {
  auto u = ParseUpdate("insert {name : \"ABC1 transporter\"} into T/p");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->value->AsString(), "ABC1 transporter");
}

TEST(ParserTest, NumberedAndTerminatedLines) {
  auto u = ParseUpdate("(7) copy S1/a3 into T/c3;");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(*u, Update::Copy(P("S1/a3"), P("T/c3")));
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseUpdate("frobnicate T").ok());
  EXPECT_FALSE(ParseUpdate("insert c2 into T").ok());
  EXPECT_FALSE(ParseUpdate("copy into T").ok());
  EXPECT_FALSE(ParseUpdate("").ok());
}

TEST(ParserTest, ScriptRoundTrip) {
  const char* text =
      "(1) delete c5 from T;\n"
      "(2) copy S1/a1/y into T/c1/y;\n"
      "# a comment\n"
      "(3) insert {c2 : {}} into T;\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->size(), 3u);
  auto again = ParseScript(ScriptToString(script.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*script, *again);
}

TEST(ParserTest, SemicolonSeparatedOnOneLine) {
  auto script = ParseScript("ins {a : {}} into T; ins {b : 1} into T/a");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 2u);
}

}  // namespace
}  // namespace cpdb::update
